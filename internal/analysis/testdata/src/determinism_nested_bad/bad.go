// Package determinism_nested_bad is a known-bad fixture for findings that
// sit inside more than one map range, or that one loop makes twice: each
// must be reported exactly once.
package determinism_nested_bad

import (
	"quasar/internal/obs"
	"quasar/internal/sim"
)

// NestedRanges accumulates, draws and emits in the body of a map range
// nested in another: each of the three is one finding, not one per loop.
func NestedRanges(util map[string]map[string]float64, rng *sim.RNG, tr *obs.Tracer) float64 {
	total := 0.0
	for srv, loads := range util {
		for _, u := range loads {
			total += u
			_ = rng.Float64()
			tr.Instant("server/"+srv, "runtime", "util")
		}
	}
	return total
}

// AppendTwice appends to the same outer slice on two lines of one map
// range: one finding for the (loop, slice) pair.
func AppendTwice(m map[string]int) []int {
	var out []int
	for k, v := range m {
		out = append(out, v)
		out = append(out, len(k))
	}
	return out
}
