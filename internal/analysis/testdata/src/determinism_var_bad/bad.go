// Package determinism_var_bad is a known-bad fixture for the map-range
// rules inside function literals stored in package-level vars: the var
// initializer walk applies them as a function body's walk does.
package determinism_var_bad

import (
	"quasar/internal/obs"
	"quasar/internal/sim"
)

// collect appends in map order (rule 3) and draws from an RNG in map
// order (rule 7).
var collect = func(m map[int]int, rng *sim.RNG) []int {
	var xs []int
	for _, v := range m {
		xs = append(xs, v)
		_ = rng.Float64()
	}
	return xs
}

// sum accumulates a float across map iteration (rule 8) and emits on a
// tracer in map order (rule 5).
var sum = func(m map[string]float64, tr *obs.Tracer) float64 {
	total := 0.0
	for k, v := range m {
		total += v
		tr.Instant("workload/"+k, "runtime", "util")
	}
	return total
}

// arm schedules engine events in map order (rule 7).
var arm = func(eng *sim.Engine, delays map[string]float64) {
	for _, d := range delays {
		eng.After(d, func() {})
	}
}
