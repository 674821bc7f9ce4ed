package classify

import (
	"fmt"
	"math"
	"testing"

	"quasar/internal/cluster"
	"quasar/internal/perfmodel"
	"quasar/internal/sim"
	"quasar/internal/workload"
)

// referencePerfAt is perfAt written the plain way: an n-node slice of the
// same node, handed to JobRate.
func referencePerfAt(p *GroundTruthProber, platformIdx, n int, alloc cluster.Alloc, pressure cluster.ResVec) float64 {
	w := p.W
	if origCfg := w.Config; origCfg != nil {
		cfg := TunedConfig(alloc.Cores, alloc.MemoryGB, false)
		w.Config = &cfg
		defer func() { w.Config = origCfg }()
	}
	nodes := make([]perfmodel.NodeAlloc, n)
	for i := range nodes {
		nodes[i] = perfmodel.NodeAlloc{Platform: &p.Platforms[platformIdx], Alloc: alloc, Pressure: pressure}
	}
	rate := w.JobRate(nodes)
	if w.Type.Class() == perfmodel.LatencyCritical {
		bound := w.Target.LatencyUS
		if bound <= 0 {
			bound = w.Genome.ServiceUS * 4
		}
		return w.Genome.QPSAtQoS(rate*w.Genome.QPSPerUnit, bound)
	}
	return rate
}

// referenceScaleOut is ScaleOut over referencePerfAt: the one-node rate and
// the n-node rate, each from its own slice.
func referenceScaleOut(p *GroundTruthProber, n int, alloc cluster.Alloc) float64 {
	one := referencePerfAt(p, p.ProfilingPlatform, 1, alloc, cluster.ResVec{})
	if one <= 0 {
		return 0
	}
	return p.noise(referencePerfAt(p, p.ProfilingPlatform, n, alloc, cluster.ResVec{}) / one)
}

// proberWorkloads returns one workload of every type, each both configured
// and unconfigured.
func proberWorkloads(platforms []cluster.Platform) []*workload.Instance {
	u := workload.NewUniverse(platforms, 17, 3)
	var out []*workload.Instance
	for tp := workload.Type(0); tp < workload.NumTypes; tp++ {
		w := u.New(workload.Spec{Type: tp, Family: -1, MaxNodes: 4})
		other := *w
		if w.Config != nil {
			other.Config = nil
		} else {
			cfg := workload.DefaultHadoopConfig()
			other.Config = &cfg
		}
		other.ID += "/other-config"
		out = append(out, w, &other)
	}
	return out
}

// TestPerfAtMatchesJobRate: perfAt, which takes one node rate and adds it n
// times, returns the bits of JobRate over an n-node slice, for every workload
// type configured and unconfigured, every scale-out count, every platform,
// and idle and loaded nodes; ScaleOut, which shares one node rate between
// its two counts, returns the bits of the two-slice version and leaves the
// workload's configuration as it was.
func TestPerfAtMatchesJobRate(t *testing.T) {
	platforms := cluster.LocalPlatforms()
	var loaded cluster.ResVec
	for r := range loaded {
		loaded[r] = 0.15 + 0.1*float64(r)
	}
	counts := ScaleOutCounts(100)
	for _, w := range proberWorkloads(platforms) {
		cfg := w.Config
		p := NewGroundTruthProber(w, platforms, nil)
		for pi, plat := range platforms {
			allocs := []cluster.Alloc{
				{Cores: plat.Cores, MemoryGB: plat.MemoryGB},
				{Cores: max(1, plat.Cores/2), MemoryGB: plat.MemoryGB / 2},
				{Cores: 1, MemoryGB: 2},
			}
			for _, alloc := range allocs {
				for _, pressure := range []cluster.ResVec{{}, loaded} {
					for _, n := range counts {
						got, want := p.perfAt(pi, n, alloc, pressure), referencePerfAt(p, pi, n, alloc, pressure)
						if math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("%s on %s, %d × %+v, pressure %v: perfAt %v, JobRate %v",
								w.ID, plat.Name, n, alloc, pressure, got, want)
						}
					}
				}
			}
		}
		alloc := cluster.Alloc{Cores: max(1, platforms[p.ProfilingPlatform].Cores/2), MemoryGB: 4}
		for _, seeded := range []bool{false, true} {
			noisy := func() *GroundTruthProber {
				if !seeded {
					return NewGroundTruthProber(w, platforms, nil)
				}
				return NewGroundTruthProber(w, platforms, sim.NewRNG(3))
			}
			got, want := noisy(), noisy()
			for _, n := range counts {
				name := fmt.Sprintf("%s ScaleOut(%d), noise %v", w.ID, n, seeded)
				if g, r := got.ScaleOut(n, alloc), referenceScaleOut(want, n, alloc); math.Float64bits(g) != math.Float64bits(r) {
					t.Fatalf("%s: %v, reference %v", name, g, r)
				}
				if w.Config != cfg {
					t.Fatalf("%s: left the workload's configuration changed", name)
				}
			}
		}
	}
}
