// Package par is the repository's deterministic parallel-execution layer:
// a bounded worker pool with ParFor/ParMap primitives whose results are
// merged in input order, so output is byte-identical regardless of worker
// count or GOMAXPROCS.
//
// The determinism contract has three clauses, and every call site must
// honor all of them:
//
//  1. Each task i must be a pure function of its inputs: it may not read
//     or write state shared with other tasks. State that a task mutates
//     (matrices, probers, workload instances) must be confined to that
//     task.
//  2. Randomness inside a task must come from the task's own seeded RNG
//     substream, derived *before* the fan-out in input order — see
//     sim.RNG.Substreams ("stream:0" … "stream:n-1"). Sharing one
//     generator across tasks makes draw order depend on goroutine
//     scheduling and is flagged by quasar-lint's determinism analyzer.
//  3. Results are only combined by input index (ParMap) or by the caller
//     after the pool drains, never in completion order.
//
// Under these rules a worker count of 1 reproduces the sequential
// execution exactly, which is what the determinism matrix tests assert.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// defaultWorkers holds the process-wide worker count used when a caller
// passes workers <= 0; zero means runtime.GOMAXPROCS(0). It exists so the
// CLIs can expose a single -workers flag without threading a parameter
// through every experiment config. It must never affect results — only how
// fast they arrive.
var defaultWorkers atomic.Int64

// SetDefaultWorkers sets the process-wide default worker count. n <= 0
// restores the GOMAXPROCS default.
func SetDefaultWorkers(n int) {
	if n < 0 {
		n = 0
	}
	defaultWorkers.Store(int64(n))
}

// Resolve maps a caller-supplied worker count to the effective pool size:
// the count itself when positive, otherwise the process default, otherwise
// GOMAXPROCS.
func Resolve(workers int) int {
	if workers > 0 {
		return workers
	}
	if d := defaultWorkers.Load(); d > 0 {
		return int(d)
	}
	return runtime.GOMAXPROCS(0)
}

// ParFor runs fn(i) for every i in [0,n) on a pool of at most
// Resolve(workers) goroutines. It returns when every task has finished.
// Tasks are handed out in index order through an atomic cursor; with one
// worker the execution is exactly the sequential loop. A panicking task
// stops its worker; the first panic (by observation order) is re-raised in
// the caller after the pool drains.
func ParFor(workers, n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	w := Resolve(workers)
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var (
		next    atomic.Int64
		wg      sync.WaitGroup
		panicMu sync.Mutex
		panicV  any
	)
	wg.Add(w)
	for k := 0; k < w; k++ {
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicMu.Lock()
					if panicV == nil {
						//lint:allow(parcapture) first-panic capture: mutex-guarded, and which panic wins never affects results (the run aborts)
						panicV = r
					}
					panicMu.Unlock()
				}
			}()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
	if panicV != nil {
		panic(panicV)
	}
}

// ParMap runs fn(i) for every i in [0,n) on the bounded pool and returns
// the results in input order: out[i] = fn(i). Each result slot is written
// exactly once by the task that owns it, so no locking is needed and the
// merge order never depends on scheduling.
func ParMap[T any](workers, n int, fn func(i int) T) []T {
	out := make([]T, n)
	ParFor(workers, n, func(i int) {
		out[i] = fn(i)
	})
	return out
}

// ParMapErr is ParMap for fallible tasks. Every task runs to completion;
// the returned error is the first non-nil error by input index (not by
// completion time), keeping error reporting deterministic too.
func ParMapErr[T any](workers, n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	errs := make([]error, n)
	ParFor(workers, n, func(i int) {
		out[i], errs[i] = fn(i)
	})
	for _, err := range errs {
		if err != nil {
			return out, err
		}
	}
	return out, nil
}
