package experiments

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"testing"

	"quasar/internal/obs"
)

var updateObsGolden = flag.Bool("update-obs", false, "rewrite the obs exporter golden files")

// tinyTracedScenario runs a small seeded scenario with tracing on and
// returns its tracer. The mix exercises every emission path: batch jobs
// (placements, completions, scale decisions), services (QoS transitions),
// and best-effort fillers (evictions).
func tinyTracedScenario(t *testing.T) *obs.Tracer {
	t.Helper()
	cfg := mixConfig{
		Hadoop: 1, Spark: 1, Storm: 0, Services: 2, SingleNode: 4, BestEffort: 6,
		HorizonSecs: 3000, Seed: 7,
	}
	s, err := runMix(cfg, true, false)
	if err != nil {
		t.Fatal(err)
	}
	return s.Tracer
}

// renderAll renders the three exporter formats.
func renderAll(t *testing.T, tr *obs.Tracer) (jsonl, chrome, prom []byte) {
	t.Helper()
	var a, b, c bytes.Buffer
	if err := obs.WriteJSONL(&a, tr); err != nil {
		t.Fatal(err)
	}
	if err := obs.WriteChromeTrace(&b, tr); err != nil {
		t.Fatal(err)
	}
	if err := obs.WritePromSnapshot(&c, tr); err != nil {
		t.Fatal(err)
	}
	return a.Bytes(), b.Bytes(), c.Bytes()
}

// TestTraceExportersDeterministicAcrossWorkers runs the traced scenario for
// every worker count of the determinism contract and requires all three
// exporter outputs to be byte-identical. Past its library seeding, a
// simulated world runs on one goroutine, so nothing else inside it reads
// the worker count: this test is the sentinel that an engine fan-out added
// back must still pass.
func TestTraceExportersDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the traced scenario once per worker count")
	}
	run := func(workers int) (j, c, p []byte) {
		withWorkers(workers, func() { j, c, p = renderAll(t, tinyTracedScenario(t)) })
		return j, c, p
	}
	wj, wc, wp := run(1)
	for _, w := range workerMatrix() {
		gj, gc, gp := run(w)
		if !bytes.Equal(wj, gj) {
			t.Fatalf("workers=%d: JSONL diverged from sequential", w)
		}
		if !bytes.Equal(wc, gc) {
			t.Fatalf("workers=%d: chrome trace diverged from sequential", w)
		}
		if !bytes.Equal(wp, gp) {
			t.Fatalf("workers=%d: prom snapshot diverged from sequential", w)
		}
	}
}

// TestTraceExporterGoldens pins the exact bytes of each exporter on the
// seeded scenario. Regenerate with: go test ./internal/experiments -run
// TestTraceExporterGoldens -update-obs
func TestTraceExporterGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full traced scenario")
	}
	jsonl, chrome, prom := renderAll(t, tinyTracedScenario(t))
	for _, g := range []struct {
		file string
		got  []byte
	}{
		{"obs_trace.jsonl", jsonl},
		{"obs_trace.chrome.json", chrome},
		{"obs_trace.prom", prom},
	} {
		path := filepath.Join("testdata", g.file)
		if *updateObsGolden {
			if err := os.WriteFile(path, g.got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing golden %s (run with -update-obs): %v", path, err)
		}
		if !bytes.Equal(want, g.got) {
			t.Errorf("%s drifted from golden: %s (regenerate with -update-obs if intended)",
				g.file, describeDrift(want, g.got))
		}
	}
}

var numberRE = regexp.MustCompile(`-?\d+(\.\d+)?([eE][-+]?\d+)?`)

// describeDrift says what kind of drift separates two renderings, so the
// decision to regenerate a golden is an informed one: either the text
// between the numeric literals differs (events, their order, names, IDs —
// a behaviour change), or only numbers moved, and then by how much at most.
// Digits inside strings count as numbers too, which only makes it stricter.
func describeDrift(want, got []byte) string {
	wText, gText := numberRE.Split(string(want), -1), numberRE.Split(string(got), -1)
	wNum, gNum := numberRE.FindAllString(string(want), -1), numberRE.FindAllString(string(got), -1)
	for i := range wText {
		if i >= len(gText) || wText[i] != gText[i] {
			return fmt.Sprintf("structure differs at the text after numeric literal %d (%q in the golden)", i, wText[i])
		}
	}
	if len(gText) != len(wText) {
		return "structure differs: the new rendering is longer"
	}
	moved, worst := 0, 0.0
	for i := range wNum {
		a, errA := strconv.ParseFloat(wNum[i], 64)
		b, errB := strconv.ParseFloat(gNum[i], 64)
		if errA != nil || errB != nil {
			return fmt.Sprintf("unparsable numeric literal %d: %q vs %q", i, wNum[i], gNum[i])
		}
		if wNum[i] == gNum[i] {
			continue
		}
		moved++
		if rel := math.Abs(a-b) / math.Max(math.Abs(a), math.Abs(b)); rel > worst {
			worst = rel
		}
	}
	return fmt.Sprintf("same events in the same order; %d of %d numeric literals differ, by at most %.3g relative",
		moved, len(wNum), worst)
}

// TestTraceAnswersPlacement closes the explainability loop: from the JSONL
// log alone, reconstruct why a workload landed on the server it did.
func TestTraceAnswersPlacement(t *testing.T) {
	tr := tinyTracedScenario(t)
	var buf bytes.Buffer
	if err := obs.WriteJSONL(&buf, tr); err != nil {
		t.Fatal(err)
	}
	evs, err := obs.ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for i := range evs {
		ev := &evs[i]
		if ev.Cat != "sched" || ev.Name != "decision" {
			continue
		}
		var w struct {
			Decision obs.ScheduleDecision `json:"decision"`
		}
		if err := json.Unmarshal(ev.Args, &w); err != nil {
			t.Fatalf("decision event %d does not decode: %v", ev.Seq, err)
		}
		d := &w.Decision
		if d.Outcome != obs.OutcomePlaced {
			continue
		}
		if len(d.Picks) == 0 || len(d.Candidates) == 0 {
			t.Fatalf("placed decision for %s carries no picks/candidates", d.Workload)
		}
		for _, srv := range d.PickedServers() {
			c, ok := d.CandidateFor(srv)
			if !ok {
				t.Fatalf("picked server %d missing from candidate ranking for %s", srv, d.Workload)
			}
			if !c.Picked {
				t.Fatalf("candidate %d not marked picked for %s", srv, d.Workload)
			}
			if c.Quality <= 0 {
				t.Fatalf("picked server %d has non-positive quality for %s", srv, d.Workload)
			}
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("trace contains no placed scheduling decisions")
	}
}
