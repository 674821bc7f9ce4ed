package workload

import (
	"math"
	"slices"

	"quasar/internal/cluster"
	"quasar/internal/perfmodel"
)

// The oracle functions evaluate ground-truth performance over candidate
// allocations on idle machines. They are used only by experiment harnesses
// — to set performance targets (the paper sweeps parameters to find each
// job's best achievable performance) and to score how close a manager's
// decisions come to optimal. The cluster manager itself never calls them.

// oracleGrid is the scale-out sweep grid, ascending.
var oracleGrid = []int{1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 100}

// oracleNodeCounts returns the prefix of oracleGrid up to maxNodes, or {1}
// when maxNodes < 1. Callers must not modify it.
func oracleNodeCounts(maxNodes int) []int {
	k := 1
	for k < len(oracleGrid) && oracleGrid[k] <= maxNodes {
		k++
	}
	return oracleGrid[:k]
}

// uniformNodes refills nodes with an n-node allocation of whole servers of
// platform p, reusing its storage. The sweeps build the largest allocation
// once per platform and evaluate its prefixes (JobRate only reads them).
func uniformNodes(nodes []perfmodel.NodeAlloc, p *cluster.Platform, n int) []perfmodel.NodeAlloc {
	alloc := cluster.Alloc{Cores: p.Cores, MemoryGB: p.MemoryGB}
	nodes = slices.Grow(nodes[:0], n)
	for i := 0; i < n; i++ {
		nodes = append(nodes, perfmodel.NodeAlloc{Platform: p, Alloc: alloc})
	}
	return nodes
}

// configCandidates refills buf with the framework configurations the oracle
// sweeps for a configured job on cores-core servers: base with every
// combination of mappers per node, heap size and compression.
func configCandidates(buf []FrameworkConfig, base *FrameworkConfig, cores int) []FrameworkConfig {
	buf = slices.Grow(buf[:0], 3*4*2)
	for _, mappers := range [...]int{cores / 2, cores, cores + cores/2} {
		if mappers < 1 {
			continue
		}
		for _, heap := range [...]float64{0.5, 0.75, 1.0, 1.5} {
			for _, comp := range [...]Compression{CompressionLZO, CompressionGzip} {
				c := *base
				c.MappersPerNode = mappers
				c.HeapsizeGB = heap
				c.Compression = comp
				buf = append(buf, c)
			}
		}
	}
	return buf
}

// sweepCompletion is the oracle sweep of a batch workload: every platform,
// framework configuration (for configured jobs) and node count up to
// maxNodes, on whole servers. It returns the best completion time and the
// platform index (-1 if no allocation finishes), configuration and node
// count that first achieved it. w.Config is restored on return.
func sweepCompletion(w *Instance, platforms []cluster.Platform, maxNodes int) (best float64, plat int, cfg FrameworkConfig, nodes int) {
	origCfg := w.Config
	defer func() { w.Config = origCfg }()

	counts := oracleNodeCounts(maxNodes)
	var alloc []perfmodel.NodeAlloc
	var cands []FrameworkConfig
	best, plat, nodes = math.Inf(1), -1, 1
	for pi := range platforms {
		p := &platforms[pi]
		alloc = uniformNodes(alloc, p, counts[len(counts)-1])
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
		cands = configCandidates(cands, origCfg, p.Cores)
		for ci := range cands {
			try(&cands[ci])
		}
	}
	return best, plat, cfg, nodes
}

// OracleBestCompletion returns the best achievable completion time of a
// batch workload over platforms, node counts up to maxNodes, whole-node
// allocations, and (for configured jobs) framework parameter settings. It
// also returns the node count that achieved it.
func OracleBestCompletion(w *Instance, platforms []cluster.Platform, maxNodes int) (secs float64, bestNodes int) {
	secs, _, _, bestNodes = sweepCompletion(w, platforms, maxNodes)
	return secs, bestNodes
}

// OracleCapacityQPS returns the best achievable saturation throughput of a
// latency service over platforms and node counts up to maxNodes.
func OracleCapacityQPS(w *Instance, platforms []cluster.Platform, maxNodes int) float64 {
	counts := oracleNodeCounts(maxNodes)
	var alloc []perfmodel.NodeAlloc
	best := 0.0
	for pi := range platforms {
		alloc = uniformNodes(alloc, &platforms[pi], counts[len(counts)-1])
		for _, n := range counts {
			if c := w.CapacityQPS(alloc[:n]); c > best {
				best = c
			}
		}
	}
	return best
}

// OracleBestIPS returns the best single-node rate of a workload over whole
// servers of every platform.
func OracleBestIPS(w *Instance, platforms []cluster.Platform) float64 {
	best := 0.0
	for pi := range platforms {
		p := &platforms[pi]
		r := w.NodeRate(p, cluster.Alloc{Cores: p.Cores, MemoryGB: p.MemoryGB}, cluster.ResVec{})
		if r > best {
			best = r
		}
	}
	return best
}

// OracleBestConfig returns the framework configuration and platform the
// oracle sweep picks for a configured job (what Table 3 reports for Quasar
// on job H8), along with the completion time it achieves on bestNodes
// whole nodes.
func OracleBestConfig(w *Instance, platforms []cluster.Platform, maxNodes int) (FrameworkConfig, string, float64) {
	if w.Config == nil {
		return FrameworkConfig{}, "", math.Inf(1)
	}
	best, plat, cfg, _ := sweepCompletion(w, platforms, maxNodes)
	if plat < 0 {
		return cfg, "", best
	}
	return cfg, platforms[plat].Name, best
}
