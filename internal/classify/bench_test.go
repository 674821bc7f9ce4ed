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
			cluster.Alloc{Cores: max(1, p.Cores/2), MemoryGB: 8},
			cluster.Alloc{Cores: max(1, p.Cores/4), MemoryGB: p.MemoryGB - 5.5},
			cluster.Alloc{Cores: 3, MemoryGB: 6})
	}
	pressure := cluster.ResVec{0.2, 0.1, 0.3}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		perfSink += es.NodePerf(i%len(e.Platforms), allocs[i%len(allocs)], pressure)
	}
}

// BenchmarkSeedLibrary: seeding sim_day_mixed's offline library — 12
// workloads of each of the seven types on the local platforms, scale-out
// counts up to 32 — into a fresh engine: the dense probes, the 84 appends and
// the fits. Every world build pays it once, before its first event.
func BenchmarkSeedLibrary(b *testing.B) {
	platforms := cluster.LocalPlatforms()
	u := workload.NewUniverse(platforms, 20140301, 3)
	var lib []*workload.Instance
	for _, tp := range []workload.Type{workload.Hadoop, workload.Spark, workload.Storm,
		workload.Memcached, workload.Cassandra, workload.Webserver, workload.SingleNode} {
		for i := 0; i < 12; i++ {
			lib = append(lib, u.New(workload.Spec{Type: tp, Family: -1, MaxNodes: 4}))
		}
	}
	opts := DefaultOptions()
	opts.MaxNodes = 32
	rng := sim.NewRNG(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		probers := make([]Prober, len(lib))
		for j, w := range lib {
			probers[j] = NewGroundTruthProber(w, platforms, rng.Stream("seed").Stream(w.ID))
		}
		e := NewEngine(platforms, opts, rng.Stream("classify"))
		e.SeedOfflineMany(lib, probers)
		perfSink += float64(e.Rows())
	}
}
