package workload

import (
	"math"
	"testing"

	"quasar/internal/cluster"
	"quasar/internal/perfmodel"
)

// wholeNodes returns an n-node allocation of idle whole servers of
// platform p.
func wholeNodes(p *cluster.Platform, n int) []perfmodel.NodeAlloc {
	nodes := make([]perfmodel.NodeAlloc, n)
	for i := range nodes {
		nodes[i] = perfmodel.NodeAlloc{Platform: p, Alloc: cluster.Alloc{Cores: p.Cores, MemoryGB: p.MemoryGB}}
	}
	return nodes
}

// referenceCounts is the node-count grid the sweeps walk.
func referenceCounts(maxNodes int) []int {
	counts := []int{1}
	for _, n := range oracleGrid[1:] {
		if n <= maxNodes {
			counts = append(counts, n)
		}
	}
	return counts
}

// referenceSweep is the oracle sweep evaluated allocation by allocation:
// CompletionTime on every platform, configuration and node count, with
// w.Config set to each candidate and restored on return.
func referenceSweep(w *Instance, platforms []cluster.Platform, maxNodes int) (best float64, plat int, cfg FrameworkConfig, nodes int) {
	origCfg := w.Config
	defer func() { w.Config = origCfg }()
	counts := referenceCounts(maxNodes)
	best, plat, nodes = math.Inf(1), -1, 1
	for pi := range platforms {
		p := &platforms[pi]
		alloc := wholeNodes(p, counts[len(counts)-1])
		try := func(c *FrameworkConfig) {
			w.Config = c
			for _, n := range counts {
				if t := w.CompletionTime(alloc[:n]); t < best {
					best, plat, nodes = t, pi, n
					if c != nil {
						cfg = *c
					}
				}
			}
		}
		if origCfg == nil {
			try(nil)
			continue
		}
		for _, c := range configCandidates(nil, origCfg, p.Cores) {
			try(&c)
		}
	}
	return best, plat, cfg, nodes
}

// referenceCapacity is OracleCapacityQPS evaluated allocation by allocation.
func referenceCapacity(w *Instance, platforms []cluster.Platform, maxNodes int) float64 {
	counts := referenceCounts(maxNodes)
	best := 0.0
	for pi := range platforms {
		alloc := wholeNodes(&platforms[pi], counts[len(counts)-1])
		for _, n := range counts {
			if c := w.CapacityQPS(alloc[:n]); c > best {
				best = c
			}
		}
	}
	return best
}

// oracleCase is an instance and the platforms its universe was built on.
type oracleCase struct {
	w         *Instance
	platforms []cluster.Platform
}

// oracleInstances returns the instances the equivalence test sweeps: every
// type in universes of both platform sets and several seeds, genomes whose
// parallelism caps every platform's cores, some or none, whose memory need
// sits below, across and above the platforms' memory (both memFactor
// branches, and the task heap need at both of its clamps), and
// configuration presence flipped against the type's default.
func oracleInstances() []oracleCase {
	var out []oracleCase
	add := func(platforms []cluster.Platform, seed int64) {
		u := NewUniverse(platforms, seed, 3)
		for tp := Type(0); tp < NumTypes; tp++ {
			for i := 0; i < 2; i++ {
				out = append(out, oracleCase{u.New(Spec{Type: tp, Family: -1, BestEffort: true}), platforms})
			}
		}
		for _, tp := range []Type{Hadoop, Memcached, SingleNode} {
			for _, par := range []float64{0, 1.5, 5, 30} {
				for _, mem := range []float64{1, 6, 40, 200} {
					w := u.New(Spec{Type: tp, Family: -1, BestEffort: true})
					w.Genome.Parallelism = par
					w.Genome.MemNeedGB = mem
					out = append(out, oracleCase{w, platforms})
				}
			}
		}
		hadoop := u.New(Spec{Type: Hadoop, Family: -1, BestEffort: true})
		hadoop.Config = nil
		service := u.New(Spec{Type: Cassandra, Family: -1, BestEffort: true})
		cfg := DefaultHadoopConfig()
		service.Config = &cfg
		out = append(out, oracleCase{hadoop, platforms}, oracleCase{service, platforms})
	}
	for _, seed := range []int64{1, 2, 42} {
		add(cluster.LocalPlatforms(), seed)
	}
	add(cluster.EC2Platforms(), 3)
	return out
}

// oracleResult is what the reference sweeps return for one instance.
type oracleResult struct {
	secs   float64
	plat   int
	cfg    FrameworkConfig
	nodes  int
	capQPS float64
}

// TestOracleSweepMatchesReference holds the sweeps, which evaluate one node
// rate per (platform, configuration) and the genome once per distinct
// EffectiveCores, to the allocation-by-allocation reference: every best
// value bit for bit, and the platform, configuration and node count that
// first achieved it.
func TestOracleSweepMatchesReference(t *testing.T) {
	cases := oracleInstances()
	if len(cases) < 200 {
		t.Fatalf("%d instances, want at least 200", len(cases))
	}
	for _, tc := range cases {
		w, platforms := tc.w, tc.platforms
		origCfg := w.Config
		var origVal FrameworkConfig
		if origCfg != nil {
			origVal = *origCfg
		}
		// The reference is a function of the count grid, so maxNodes 1000
		// reuses 100's (the grid stops at 100).
		refs := map[int]oracleResult{}
		for _, maxNodes := range []int{0, 1, 2, 3, 5, 8, 17, 100, 1000} {
			grid := len(referenceCounts(maxNodes))
			want, ok := refs[grid]
			if !ok {
				want.secs, want.plat, want.cfg, want.nodes = referenceSweep(w, platforms, maxNodes)
				want.capQPS = referenceCapacity(w, platforms, maxNodes)
				refs[grid] = want
			}
			secs, nodes := OracleBestCompletion(w, platforms, maxNodes)
			if math.Float64bits(secs) != math.Float64bits(want.secs) || nodes != want.nodes {
				t.Fatalf("%s (par %v, mem %v) maxNodes %d: OracleBestCompletion = %v on %d nodes, reference %v on %d",
					w.ID, w.Genome.Parallelism, w.Genome.MemNeedGB, maxNodes, secs, nodes, want.secs, want.nodes)
			}
			cfg, plat, cfgSecs := OracleBestConfig(w, platforms, maxNodes)
			if w.Config != nil {
				wantName := ""
				if want.plat >= 0 {
					wantName = platforms[want.plat].Name
				}
				if cfg != want.cfg || plat != wantName || math.Float64bits(cfgSecs) != math.Float64bits(want.secs) {
					t.Fatalf("%s maxNodes %d: OracleBestConfig = %+v on %q in %v, reference %+v on %q in %v",
						w.ID, maxNodes, cfg, plat, cfgSecs, want.cfg, wantName, want.secs)
				}
			}
			if c := OracleCapacityQPS(w, platforms, maxNodes); math.Float64bits(c) != math.Float64bits(want.capQPS) {
				t.Fatalf("%s maxNodes %d: OracleCapacityQPS = %v, reference %v", w.ID, maxNodes, c, want.capQPS)
			}
			if w.Config != origCfg || (origCfg != nil && *origCfg != origVal) {
				t.Fatalf("%s maxNodes %d: the sweep changed the instance's configuration", w.ID, maxNodes)
			}
		}
	}
}
