// Package determinism_par_clean is a known-clean fixture: the sanctioned
// fan-out patterns. Tasks draw only from per-task streams or task-local
// generators, so nothing is reported.
package determinism_par_clean

import (
	"strconv"

	"quasar/internal/par"
	"quasar/internal/sim"
)

// StreamPerTask derives one stream per task in input order, before the
// fan-out — the sanctioned pattern.
func StreamPerTask(seed int64) []float64 {
	rng := sim.NewRNG(seed)
	streams := make([]*sim.RNG, 8)
	for i := range streams {
		streams[i] = rng.Stream("task:" + strconv.Itoa(i))
	}
	return par.ParMap(len(streams), func(i int) float64 {
		return streams[i].Float64()
	})
}

// TaskLocal mints an independent generator inside each task.
func TaskLocal(seed int64) []float64 {
	return par.ParMap(8, func(i int) float64 {
		rng := sim.NewRNG(seed + int64(i))
		return rng.Float64()
	})
}

// SourcePerTask seeds a raw source inside each task; each shuffle draws
// only from its own.
func SourcePerTask(seed int64) [][]int {
	return par.ParMap(8, func(i int) []int {
		src := sim.NewSource(seed + int64(i))
		xs := []int{0, 1, 2, 3}
		sim.Shuffle(src, xs)
		return xs
	})
}

// GoroutineLocal mints the generator inside the goroutine that uses it.
func GoroutineLocal(seed int64) float64 {
	out := make(chan float64)
	go func() {
		rng := sim.NewRNG(seed)
		out <- rng.Float64()
	}()
	return <-out
}

// SequentialSharing draws from one generator across helpers without any
// concurrency — sharing is only a problem across tasks.
func SequentialSharing(seed int64) float64 {
	rng := sim.NewRNG(seed)
	sum := 0.0
	for i := 0; i < 4; i++ {
		sum += rng.Stream("step").Float64()
	}
	return sum
}
