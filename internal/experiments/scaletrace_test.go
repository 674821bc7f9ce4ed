package experiments

import (
	"bytes"
	"testing"

	"quasar/internal/obs"
	"quasar/internal/par"
)

// TestScaleTraceDeterministicAcrossWorkers pins the determinism contract at
// scale: a 1k-server / 10k-workload scenario (shortened horizon) must emit a
// byte-identical trace for every worker count, at a size where the parallel
// fan-out and the free-resource index carry thousands of entries that the
// 40- and 200-server scenarios never reach. It sees only divergence that
// depends on the worker count; a deterministic change to ranking or event
// order shows as a byte change against the previous commit's trace from the
// scale row of `make trace-diff`.
func TestScaleTraceDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the at-scale scenario once per worker count")
	}
	cfg := DefaultScaleTraceConfig()
	run := func(workers int) []byte {
		par.SetDefaultWorkers(workers)
		defer par.SetDefaultWorkers(0)
		out, err := ScaleTrace(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	want := run(1)
	if len(want) == 0 {
		t.Fatal("at-scale run emitted an empty trace")
	}
	t.Logf("trace: %d bytes for %d workloads on %d servers",
		len(want), cfg.Services+cfg.Single+cfg.BestEffort, cfg.Servers)
	for _, w := range workerMatrix() {
		if got := run(w); !bytes.Equal(want, got) {
			t.Fatalf("workers=%d diverged from sequential at byte %d of %d",
				w, diffAt(want, got), len(want))
		}
	}
}

// TestStreamedTraceMatchesBufferedAcrossWorkers is the streaming pipeline's
// half of the determinism contract at scale: at the 1k-server point, the
// JSONL a StreamSink writes incrementally must be byte-identical to the
// buffered WriteJSONL export, for every worker count, while the tracer's
// retained memory stays below the bytes it streamed. A divergence here means
// the sink pipeline — not the event stream — broke determinism.
func TestStreamedTraceMatchesBufferedAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the at-scale scenario once buffered plus once per worker count")
	}
	cfg := DefaultScaleTraceConfig()
	want, err := ScaleTrace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("buffered at-scale run emitted an empty trace")
	}
	for _, w := range workerMatrix() {
		par.SetDefaultWorkers(w)
		var buf bytes.Buffer
		sink := obs.NewStreamSinkWriter(&buf)
		s, err := runScaleScenario(cfg, []obs.Sink{sink})
		par.SetDefaultWorkers(0)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Tracer.Close(); err != nil {
			t.Fatal(err)
		}
		n := sink.BytesWritten()
		if n != int64(buf.Len()) {
			t.Fatalf("workers=%d: BytesWritten %d != buffer length %d", w, n, buf.Len())
		}
		if !bytes.Equal(want, buf.Bytes()) {
			t.Fatalf("workers=%d: streamed trace diverged from buffered at byte %d of %d",
				w, diffAt(want, buf.Bytes()), len(want))
		}
		if _, high := s.Tracer.RetainedBytes(); int64(high) >= n {
			t.Fatalf("workers=%d: tracer high water %d bytes not bounded below the %d bytes streamed",
				w, high, n)
		}
	}
}

// diffAt returns the first index where a and b differ (or the shorter length).
func diffAt(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}
