package experiments

import (
	"bytes"
	"encoding/json"
	"runtime"
	"testing"
	"time"

	"quasar/internal/cluster"
	"quasar/internal/par"
)

// fakeClock returns a Clock that advances a fixed step per reading, so
// wall-clock-derived fields become pure functions of the call sequence.
func fakeClock() Clock {
	now := time.Unix(0, 0)
	return func() time.Time {
		now = now.Add(time.Millisecond)
		return now
	}
}

// workerMatrix is the worker-count grid of the determinism contract: the
// sequential baseline, a count above this machine's CPUs, and NumCPU.
func workerMatrix() []int {
	return []int{1, 4, runtime.NumCPU()}
}

// withWorkers runs fn with the worker pool's size set to n, so every
// fan-out fn reaches (validations, library seeding, RetrainAll, whole
// worlds) runs on a pool of that size.
func withWorkers(n int, fn func()) {
	par.SetDefaultWorkers(n)
	defer par.SetDefaultWorkers(0)
	fn()
}

// TestStragglersDeterministic runs the straggler-detection scenario —
// trials fan out on the worker pool — across the worker matrix and requires
// byte-identical serialized results. The sim engine underneath each trial
// must therefore be deterministic too.
func TestStragglersDeterministic(t *testing.T) {
	const seed = 11
	marshal := func(workers int) (out []byte) {
		var err error
		withWorkers(workers, func() { out, err = json.Marshal(Stragglers(3, seed)) })
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	want := marshal(1)
	for _, w := range workerMatrix() {
		if got := marshal(w); !bytes.Equal(want, got) {
			t.Fatalf("workers=%d diverged from sequential:\n%.300s\nvs\n%.300s", w, want, got)
		}
	}
	if again := marshal(1); !bytes.Equal(want, again) {
		t.Fatalf("same seed produced different results:\n%.300s\nvs\n%.300s", want, again)
	}
}

// TestTable2DeterministicAcrossWorkers pins the Table 2 classification
// sweep: its fan-outs (library seeding's probes and both validations) must
// serialize byte-identically for any worker count. It runs the default
// configuration, whose appends pass several retrain points after library
// seeding, so the matrix also covers append fits that later fold-ins read.
func TestTable2DeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the classification sweep once per worker count")
	}
	run := func(workers int) (out []byte) {
		var err error
		withWorkers(workers, func() { out, err = json.Marshal(Table2(DefaultTable2Config())) })
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	// workerMatrix starts at 1, so the sequential run repeats once: the
	// loop checks plain same-seed repeatability and worker invariance.
	want := run(1)
	for _, w := range workerMatrix() {
		if got := run(w); !bytes.Equal(want, got) {
			t.Fatalf("workers=%d diverged from sequential:\n%.300s\nvs\n%.300s", w, want, got)
		}
	}
}

// TestFig3DeterministicAcrossWorkers pins the Fig. 3 density sweep under
// injected per-point clocks: grid points, and within each the library
// seeding, validations and RetrainAll, run concurrently yet must land
// byte-identically for any worker count, and repeat runs must agree.
func TestFig3DeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the density sweep once per worker count")
	}
	run := func(workers int) (out []byte) {
		cfg := DefaultFig3Config()
		cfg.EntriesGrid = []int{1, 4}
		cfg.PerClass = 2
		cfg.SeedLibPerType = 2
		cfg.PointClock = fakeClock
		// A six-row decision library: determinism, not the cost regime, is
		// under test.
		var err error
		withWorkers(workers, func() { out, err = json.Marshal(fig3(cfg, cluster.LocalPlatforms(), 6)) })
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	want := run(1)
	for _, w := range workerMatrix() {
		if got := run(w); !bytes.Equal(want, got) {
			t.Fatalf("workers=%d diverged from sequential:\n%.300s\nvs\n%.300s", w, want, got)
		}
	}
}
