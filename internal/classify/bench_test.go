package classify

import (
	"testing"

	"quasar/internal/cluster"
	"quasar/internal/sim"
	"quasar/internal/workload"
)

var perfSink float64

// BenchmarkNodePerf: one estimate evaluation, cycled over the allocations
// its callers produce — whole nodes (ranking), grid rungs and a free-memory
// remainder (right-sizing), a live allocation (monitoring) — on every
// platform. The monitor pays this once per running node per tick and the
// scheduler once per candidate per ranking.
func BenchmarkNodePerf(b *testing.B) {
	e, u := testSetup(b, 2)
	w := u.New(workload.Spec{Type: workload.Hadoop, Family: -1, MaxNodes: 4})
	es := e.Classify(w, NewGroundTruthProber(w, e.Platforms, sim.NewRNG(5)))
	var allocs []cluster.Alloc
	for _, p := range e.Platforms {
		allocs = append(allocs,
			cluster.Alloc{Cores: p.Cores, MemoryGB: p.MemoryGB},
			cluster.Alloc{Cores: maxInt(1, p.Cores/2), MemoryGB: 8},
			cluster.Alloc{Cores: maxInt(1, p.Cores/4), MemoryGB: p.MemoryGB - 5.5},
			cluster.Alloc{Cores: 3, MemoryGB: 6})
	}
	pressure := cluster.ResVec{0.2, 0.1, 0.3}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		perfSink += es.NodePerf(i%len(e.Platforms), allocs[i%len(allocs)], pressure)
	}
}
