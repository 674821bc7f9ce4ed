// Package determinism_par_bad is a known-bad fixture: every function
// shares one RNG across concurrent tasks, which the determinism analyzer
// must flag — draws interleave by goroutine schedule, so identical seeds
// stop producing identical results.
package determinism_par_bad

import (
	"math/rand"

	"quasar/internal/par"
	"quasar/internal/sim"
)

// SharedInGoroutine draws from the enclosing function's generator inside a
// go statement.
func SharedInGoroutine(seed int64) float64 {
	rng := sim.NewRNG(seed)
	out := make(chan float64)
	go func() {
		out <- rng.Float64()
	}()
	return <-out
}

// SharedInParTask captures the parent generator inside a fan-out task.
func SharedInParTask(seed int64) []float64 {
	rng := sim.NewRNG(seed)
	return par.ParMap(8, func(i int) float64 {
		return rng.Float64()
	})
}

// SharedStreamDerivation derives streams concurrently; Stream mutates the
// parent, so derivation order depends on the schedule.
func SharedStreamDerivation(seed int64) {
	rng := sim.NewRNG(seed)
	par.ParFor(4, func(i int) {
		_ = rng.Stream("task").Float64()
	})
}

// SharedStdRand shares a seeded *math/rand.Rand across tasks — seeded, but
// still one mutable source under concurrent draws.
func SharedStdRand(seed int64) []float64 {
	r := rand.New(sim.NewSource(seed))
	sums := make([]float64, 4)
	par.ParFor(4, func(i int) {
		sums[i] = r.NormFloat64()
	})
	return sums
}

// SharedSource captures one raw source in a fan-out task: a *sim.Source is
// as much a shared generator as the RNG built on it.
func SharedSource(seed int64) []uint64 {
	src := sim.NewSource(seed)
	return par.ParMap(8, func(i int) uint64 {
		return src.Uint64()
	})
}

// worker reaches its generator through a captured receiver.
type worker struct{ rng *sim.RNG }

// Fill draws through the shared receiver field inside each task.
func (w *worker) Fill(out []float64) {
	par.ParFor(len(out), func(i int) {
		out[i] = w.rng.Float64()
	})
}
