package core

import (
	"testing"

	"quasar/internal/workload"
)

// TestCostCapLimitsAllocation: a workload with a tight cost cap must get a
// cheaper (smaller or lower-end) allocation than the same workload without
// one — the §4.4 cost-target extension.
func TestCostCapLimitsAllocation(t *testing.T) {
	if testing.Short() {
		t.Skip("cost-cap scenario runs ~3s under -race")
	}
	run := func(cap float64) (cores int, plats map[string]bool) {
		rt, _, u := quasarFixture(t, 311)
		w := u.New(workload.Spec{Type: workload.Hadoop, Family: 0, MaxNodes: 4, TargetSlack: 1.0,
			Dataset:        workload.Dataset{Name: "cost", SizeGB: 20, WorkMult: 8, MemMult: 1},
			MaxCostPerHour: cap})
		task := rt.Submit(w, 0, nil)
		rt.Run(400)
		rt.Stop()
		plats = map[string]bool{}
		for _, pl := range task.Placements() {
			plats[pl.Server.Platform.Name] = true
		}
		return task.TotalCores(), plats
	}
	unlimitedCores, _ := run(0)
	if unlimitedCores == 0 {
		t.Fatal("unlimited workload got no allocation")
	}
	// Price the cap at roughly a third of what the unlimited allocation
	// costs (cores * ~0.03*CorePerf(~2) per core-hour).
	capped, _ := run(float64(unlimitedCores) * 0.03 * 2.1 / 3)
	if capped == 0 {
		t.Fatal("capped workload got no allocation at all")
	}
	if capped >= unlimitedCores {
		t.Fatalf("cost cap did not shrink the allocation: %d vs %d cores", capped, unlimitedCores)
	}
}
