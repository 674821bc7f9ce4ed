package experiments

import (
	"fmt"
	"testing"
)

// behaviourSeeds is the seed set the scenario-level behavioural checks
// (TestSLODetectAccuracy, TestAvailabilityAcceptance, TestPhasesShape)
// claim over. At one seed such a bar passes or fails with that seed's draw.
// A change that moves trajectories re-draws every storm, so a bar that
// sits near one seed's value is a coin flip for it. Pooled over twelve
// seeds, the bar has to move with the behaviour. The …Deterministic
// byte-identity tests stay at their fixed seeds: those are contracts, not
// claims.
var behaviourSeeds = []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}

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
