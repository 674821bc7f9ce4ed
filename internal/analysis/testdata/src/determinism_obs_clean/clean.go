// Package determinism_obs_clean is a known-clean fixture for the tracer
// rules of the determinism analyzer: each function is the sanctioned
// counterpart of a determinism_obs_bad pattern.
package determinism_obs_clean

import (
	"sort"

	"quasar/internal/obs"
	"quasar/internal/par"
)

// EmitSortedKeys sorts the map's keys before emitting, so the event order
// is a pure function of the map's contents.
func EmitSortedKeys(tr *obs.Tracer, util map[string]float64) {
	keys := make([]string, 0, len(util))
	for k := range util {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		tr.Instant("server/"+k, "runtime", "util", obs.Arg{Key: "u", Val: util[k]})
	}
}

// SimClockStamp reads time through an injected simulation clock.
func SimClockStamp(clock func() float64, tr *obs.Tracer) {
	tr.InstantAt(clock(), "manager", "runtime", "tick")
}

// EmitAfterFanOut returns each task's result and emits after the fan-out,
// in input order.
func EmitAfterFanOut(tr *obs.Tracer, refs []float64) {
	perf := par.ParMap(len(refs), func(i int) float64 {
		return 2 * refs[i]
	})
	for i, p := range perf {
		tr.Instant("classify", "classify", "probe", obs.Arg{Key: "i", Val: i}, obs.Arg{Key: "perf", Val: p})
	}
}

// ReadOnlyInTask checks the tracer's state inside a task without emitting,
// which is safe anywhere.
func ReadOnlyInTask(tr *obs.Tracer, hits []int) {
	par.ParFor(len(hits), func(i int) {
		if tr.Enabled() {
			hits[i]++
		}
	})
}
