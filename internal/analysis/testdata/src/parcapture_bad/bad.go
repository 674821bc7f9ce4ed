// Package parcapture_bad is a known-bad fixture: concurrent task bodies
// writing to state captured from the enclosing scope, which the
// determinism analyzer's captured-write rule must flag — the writes race
// and their order depends on the goroutine schedule.
package parcapture_bad

import (
	"sync"

	"quasar/internal/par"
)

// SharedCounter increments a captured int from every task.
func SharedCounter(n int) int {
	count := 0
	par.ParFor(n, func(i int) {
		count++
	})
	return count
}

// SharedAccumulator compound-assigns into a captured float.
func SharedAccumulator(xs []float64) float64 {
	total := 0.0
	par.ParFor(len(xs), func(i int) {
		total += xs[i]
	})
	return total
}

// SharedAppend reassigns a captured slice header from every task; even
// under a mutex the element order depends on the schedule.
func SharedAppend(n int) []int {
	var mu sync.Mutex
	var out []int
	par.ParFor(n, func(i int) {
		mu.Lock()
		defer mu.Unlock()
		out = append(out, i)
	})
	return out
}

// SharedMap writes into a captured map: concurrent map writes fault at
// runtime.
func SharedMap(n int) map[int]int {
	m := make(map[int]int, n)
	par.ParFor(n, func(i int) {
		m[i] = i * i
	})
	return m
}

// GoroutineWrite mutates captured state from a bare goroutine.
func GoroutineWrite() int {
	best := 0
	done := make(chan struct{})
	go func() {
		best = 42
		close(done)
	}()
	<-done
	return best
}

// initTotal is written by a goroutine that a package-level initializer
// starts: the walk covers var initializers as well as function bodies.
var initTotal int

var _ = func() int {
	go func() {
		initTotal++
	}()
	return 0
}()
