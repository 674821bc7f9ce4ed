package experiments

import (
	"bytes"
	"testing"

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
	t.Logf("trace: %d bytes for %d workloads on %d servers", len(want), cfg.Workloads(), cfg.Servers)
	for _, w := range workerMatrix() {
		if got := run(w); !bytes.Equal(want, got) {
			t.Fatalf("workers=%d diverged from sequential at byte %d of %d",
				w, diffAt(want, got), len(want))
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
