package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"quasar/internal/obs"
)

// writeServeTrace streams a synthetic serve-flavored trace to a file the way
// quasar-serve does (StreamSink), with events at known sim times: one
// serve.apply per admission at t = 10, 20, ..., 10*n, and apply errors with
// the given reasons at t = 5.
func writeServeTrace(t *testing.T, path string, applies int, errorReasons []string) {
	t.Helper()
	sink, err := obs.NewStreamSink(path)
	if err != nil {
		t.Fatal(err)
	}
	now := 0.0
	tr := obs.NewWithSinks(func() float64 { return now }, sink)
	for i, reason := range errorReasons {
		now = 5
		tr.Instant("serve", "serve", "serve.apply-error",
			obs.Arg{Key: "seq", Val: i + 1}, obs.Arg{Key: "kind", Val: "target"},
			obs.Arg{Key: "error", Val: reason})
	}
	for i := 1; i <= applies; i++ {
		now = float64(10 * i)
		tr.Instant("serve", "serve", "serve.apply",
			obs.Arg{Key: "seq", Val: i}, obs.Arg{Key: "kind", Val: "submit"},
			obs.Arg{Key: "workload", Val: fmt.Sprintf("single-node-%04d", i)},
			obs.Arg{Key: "req", Val: fmt.Sprintf("r-%d", i)})
		tr.Instant("workload/w"+fmt.Sprint(i), "runtime", "submit")
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSummarizeWindowFilter drives summarize the way the -since/-until flags
// do, against a StreamSink-written trace: the unwindowed summary sees every
// event, and a clipped window drops exactly the events outside it.
func TestSummarizeWindowFilter(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "trace.jsonl")
	writeServeTrace(t, path, 5, nil)

	run := func(since, until float64) string {
		t.Helper()
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = f.Close() }()
		var out bytes.Buffer
		if err := summarize(f, since, until, &out); err != nil {
			t.Fatal(err)
		}
		return out.String()
	}

	full := run(neg(), pos())
	if !strings.Contains(full, "events: 10  span: 10s..50s") {
		t.Fatalf("full summary wrong:\n%s", full)
	}
	if !strings.Contains(full, "serve admissions: 5 applied, 0 apply errors") {
		t.Fatalf("full summary missing serve admissions:\n%s", full)
	}

	windowed := run(20, 40)
	if !strings.Contains(windowed, "events: 6  span: 20s..40s") {
		t.Fatalf("windowed summary kept the wrong events:\n%s", windowed)
	}
	if !strings.Contains(windowed, "serve admissions: 3 applied, 0 apply errors") {
		t.Fatalf("windowed summary counted the wrong admissions:\n%s", windowed)
	}

	empty := run(1000, 2000)
	if !strings.Contains(empty, "empty trace") {
		t.Fatalf("out-of-range window should summarize as empty:\n%s", empty)
	}
}

// TestSummarizeApplyErrorReasons pins the serve.apply-error rollup: the
// summary counts errors and ranks the top reasons by occurrence, ties
// alphabetical.
func TestSummarizeApplyErrorReasons(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "trace.jsonl")
	writeServeTrace(t, path, 2, []string{
		"unknown workload x-1", "unknown workload x-1", "unknown workload x-1",
		"not best-effort", "not best-effort",
		"already removed",
	})

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = f.Close() }()
	var out bytes.Buffer
	if err := summarize(f, neg(), pos(), &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "serve admissions: 2 applied, 6 apply errors") {
		t.Fatalf("summary missing error totals:\n%s", got)
	}
	i1 := strings.Index(got, "apply error 3x: unknown workload x-1")
	i2 := strings.Index(got, "apply error 2x: not best-effort")
	i3 := strings.Index(got, "apply error 1x: already removed")
	if i1 < 0 || i2 < 0 || i3 < 0 || !(i1 < i2 && i2 < i3) {
		t.Fatalf("top reasons missing or misordered (%d, %d, %d):\n%s", i1, i2, i3, got)
	}
}

// TestTopReasons pins the ranking helper directly: count descending, ties
// alphabetical, truncated to k.
func TestTopReasons(t *testing.T) {
	m := map[string]int{"b": 2, "a": 2, "c": 5, "d": 1}
	got := topReasons(m, 3)
	want := []reasonCount{{"c", 5}, {"a", 2}, {"b", 2}}
	if len(got) != len(want) {
		t.Fatalf("topReasons returned %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("topReasons[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

// neg/pos are the flag defaults for an unwindowed run.
func neg() float64 { return math.Inf(-1) }
func pos() float64 { return math.Inf(1) }

// TestSummaryReportsTopK: a trace recorded under a top-K cap says so on the
// summary's first line; an uncapped trace prints no such line.
func TestSummaryReportsTopK(t *testing.T) {
	for _, k := range []int{0, 8} {
		var trace bytes.Buffer
		tr := obs.NewWithSinks(nil, obs.NewStreamSinkWriter(&trace))
		tr.SetTopK(k)
		tr.Instant("workload/w1", "runtime", "submit")
		if err := tr.Close(); err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		if err := summarize(&trace, neg(), pos(), &out); err != nil {
			t.Fatal(err)
		}
		first, _, _ := strings.Cut(out.String(), "\n")
		want := "events: 1  span: 0s..0s"
		if k > 0 {
			want = fmt.Sprintf("recorded with trace controls: top-k candidates=%d", k)
		}
		if first != want {
			t.Errorf("k=%d: summary starts %q, want %q", k, first, want)
		}
	}
}
