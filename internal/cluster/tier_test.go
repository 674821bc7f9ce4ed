package cluster

import "testing"

// TestTierRule states the yield order in full: only best-effort residents
// yield, and every other tier carries a target.
func TestTierRule(t *testing.T) {
	for _, tc := range []struct {
		tier             Tier
		yields, targeted bool
	}{
		{Guaranteed, false, true},
		{Burstable, false, true},
		{BestEffort, true, false},
	} {
		if got := tc.tier.Yields(); got != tc.yields {
			t.Errorf("tier %d: Yields() = %v, want %v", tc.tier, got, tc.yields)
		}
		if got := tc.tier.Targeted(); got != tc.targeted {
			t.Errorf("tier %d: Targeted() = %v, want %v", tc.tier, got, tc.targeted)
		}
	}
}
