package par

import (
	"runtime"
	"strconv"
	"sync/atomic"
	"testing"

	"quasar/internal/sim"
)

// withWorkers runs fn with the pool size set to n. Tests that call it
// change process-wide state, so they do not run in parallel.
func withWorkers(n int, fn func()) {
	SetDefaultWorkers(n)
	defer SetDefaultWorkers(0)
	fn()
}

func TestParForCoversAllIndices(t *testing.T) {
	for _, w := range []int{1, 2, 4, 16} {
		hits := make([]int32, 100)
		withWorkers(w, func() {
			ParFor(len(hits), func(i int) {
				atomic.AddInt32(&hits[i], 1)
			})
		})
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d hit %d times", w, i, h)
			}
		}
	}
}

func TestParForZeroAndNegativeN(t *testing.T) {
	t.Parallel()
	called := false
	ParFor(0, func(int) { called = true })
	ParFor(-3, func(int) { called = true })
	if called {
		t.Fatal("fn called for empty range")
	}
}

func TestParMapOrdersResults(t *testing.T) {
	for _, w := range []int{1, 3, 8} {
		var got []int
		withWorkers(w, func() { got = ParMap(50, func(i int) int { return i * i }) })
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d]=%d", w, i, v)
			}
		}
	}
}

func TestParMapErrReturnsFirstErrorByIndex(t *testing.T) {
	errA := &indexErr{7}
	errB := &indexErr{3}
	var err error
	withWorkers(4, func() {
		_, err = ParMapErr(10, func(i int) (int, error) {
			switch i {
			case 7:
				return 0, errA
			case 3:
				return 0, errB
			}
			return i, nil
		})
	})
	if err != errB {
		t.Fatalf("got %v, want error from lowest index 3", err)
	}
}

type indexErr struct{ i int }

func (e *indexErr) Error() string { return "task failed" }

func TestParForPanicPropagates(t *testing.T) {
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("panic swallowed")
		}
	}()
	withWorkers(4, func() {
		ParFor(10, func(i int) {
			if i == 5 {
				panic("boom")
			}
		})
	})
}

// TestParMapDeterministicWithSubstreams is the contract test: one RNG
// stream per task, derived before the fan-out in input order, plus the
// input-order merge must give byte-identical results for any worker count.
func TestParMapDeterministicWithSubstreams(t *testing.T) {
	run := func(workers int) (out []float64) {
		rng := sim.NewRNG(42)
		streams := make([]*sim.RNG, 64)
		for i := range streams {
			streams[i] = rng.Stream("task:" + strconv.Itoa(i))
		}
		withWorkers(workers, func() {
			out = ParMap(len(streams), func(i int) float64 {
				r := streams[i]
				sum := 0.0
				for k := 0; k < 100; k++ {
					sum += r.Float64()
				}
				return sum
			})
		})
		return out
	}
	want := run(1)
	for _, w := range []int{2, 4, runtime.NumCPU()} {
		got := run(w)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: out[%d]=%v want %v", w, i, got[i], want[i])
			}
		}
	}
}

func TestResolveAndDefaultWorkers(t *testing.T) {
	SetDefaultWorkers(5)
	if resolve() != 5 {
		t.Fatal("setting not used")
	}
	SetDefaultWorkers(-2)
	if resolve() != runtime.GOMAXPROCS(0) {
		t.Fatal("negative setting not treated as the default")
	}
	SetDefaultWorkers(0)
	if resolve() != runtime.GOMAXPROCS(0) {
		t.Fatal("GOMAXPROCS fallback broken")
	}
}
