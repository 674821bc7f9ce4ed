package perfmodel

import (
	"testing"

	"quasar/internal/cluster"
	"quasar/internal/sim"
)

var rateSink float64

// BenchmarkNodeRate is one ground-truth node rate, the step every oracle
// sweep, prober measurement and runtime tick repeats per node: an affinity
// lookup by platform name among the 14 EC2 platforms, two powers and the
// interference penalty. It cycles platforms so every lookup position runs.
func BenchmarkNodeRate(b *testing.B) {
	platforms := cluster.EC2Platforms()
	arch, err := ArchetypeByName("hadoop")
	if err != nil {
		b.Fatal(err)
	}
	fam := NewFamily("hadoop-bench", arch, platforms, sim.NewRNG(1))
	g := fam.Instantiate(sim.NewRNG(2), 1, 1)
	pressure := cluster.ResVec{0.2, 0.1, 0.3}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := &platforms[i%len(platforms)]
		rateSink += g.NodeRate(p, cluster.Alloc{Cores: 1 + i%p.Cores, MemoryGB: p.MemoryGB / 2}, pressure)
	}
}
