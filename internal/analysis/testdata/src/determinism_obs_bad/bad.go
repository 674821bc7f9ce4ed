// Package determinism_obs_bad is a known-bad fixture for the tracer rules
// of the determinism analyzer: every function breaks the byte-identical-
// trace contract — emission in randomized map order, wall-clock
// timestamps, or one tracer shared across concurrent tasks.
package determinism_obs_bad

import (
	"time"

	"quasar/internal/obs"
	"quasar/internal/par"
)

// EmitInMapOrder emits one event per map entry: the events land in Go's
// randomized iteration order, so two runs of the same seed diverge.
func EmitInMapOrder(tr *obs.Tracer, util map[string]float64) {
	for srv, u := range util {
		tr.Instant("server/"+srv, "runtime", "util", obs.Arg{Key: "u", Val: u})
	}
}

// WallClockStamp timestamps an event off the wall clock instead of the
// injected simulation clock.
func WallClockStamp(tr *obs.Tracer) {
	tr.InstantAt(float64(time.Now().UnixNano()), "manager", "runtime", "tick")
}

// SharedTracerFanOut captures one tracer across concurrent tasks, so
// emissions interleave by goroutine schedule.
func SharedTracerFanOut(tr *obs.Tracer) {
	par.ParFor(8, func(i int) {
		tr.Instant("classify", "classify", "probe")
	})
}

// TracerInStruct reaches the shared tracer through a captured struct, which
// interleaves emissions just the same.
func TracerInStruct(e *struct{ tr *obs.Tracer }) {
	par.ParFor(4, func(i int) {
		e.tr.Instant("classify", "classify", "probe", obs.Arg{Key: "i", Val: i})
	})
}
