package experiments

import (
	"fmt"
	"testing"
)

// behaviourSeeds is the seed set the scenario-level behavioural checks
// (TestSLODetectAccuracy, TestAvailabilityAcceptance, TestPhasesShape)
// claim over. At one seed such a bar passes or fails with that seed's draw.
// A change that moves trajectories re-draws every storm, so a bar that
// sits near one seed's value is a coin flip for it. Pooled over 48 seeds,
// the bar has to move with the behaviour. The …Deterministic byte-identity
// tests stay at their fixed seeds: those are contracts, not claims.
var behaviourSeeds = seedRange(1, 48)

// seedRange returns the seeds lo..hi in order.
func seedRange(lo, hi int64) []int64 {
	out := make([]int64, 0, hi-lo+1)
	for s := lo; s <= hi; s++ {
		out = append(out, s)
	}
	return out
}

// overSeeds runs one scenario per seed of behaviourSeeds as parallel
// subtests. It returns once every seed has finished, with the results in
// seed order. A seed that fails leaves its slot at the zero value, so a
// caller checks t.Failed() before it pools.
func overSeeds[R any](t *testing.T, run func(t *testing.T, seed int64) R) []R {
	t.Helper()
	out := make([]R, len(behaviourSeeds))
	t.Run("seeds", func(t *testing.T) {
		for i, seed := range behaviourSeeds {
			t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
				t.Parallel()
				out[i] = run(t, seed)
			})
		}
	})
	return out
}
