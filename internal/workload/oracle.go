package workload

import (
	"math"

	"quasar/internal/cluster"
	"quasar/internal/perfmodel"
)

// The oracle functions evaluate ground-truth performance over candidate
// allocations on idle machines. They are used only by experiment harnesses
// — to set performance targets (the paper sweeps parameters to find each
// job's best achievable performance) and to score how close a manager's
// decisions come to optimal. The cluster manager itself never calls them.

// oracleGrid is the scale-out sweep grid, ascending.
var oracleGrid = [...]int{1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 100}

// scaleOut is the node-count half of the oracle sweep: every allocation it
// evaluates is n identical idle whole servers, so one node rate per
// (platform, configuration) gives the job rate of every count.
type scaleOut struct {
	// counts is the prefix of oracleGrid up to maxNodes, or {1} when
	// maxNodes < 1.
	counts []int
	// eff[i] is the genome's ScaleOutEfficiency(counts[i]).
	eff [len(oracleGrid)]float64
	// rates holds jobRates' result.
	rates [len(oracleGrid)]float64
}

// newScaleOut returns the node counts up to maxNodes and g's efficiency at
// each.
func newScaleOut(g *perfmodel.Genome, maxNodes int) scaleOut {
	k := 1
	for k < len(oracleGrid) && oracleGrid[k] <= maxNodes {
		k++
	}
	s := scaleOut{counts: oracleGrid[:k]}
	for i, n := range s.counts {
		s.eff[i] = g.ScaleOutEfficiency(n)
	}
	return s
}

// jobRates returns the job rate of counts[i] nodes of rate r at index i,
// exactly as JobRate computes it: the node rates summed in order, times the
// scale-out efficiency. The result is valid until the next call.
func (s *scaleOut) jobRates(r float64) []float64 {
	sum, summed := 0.0, 0
	for i, n := range s.counts {
		for ; summed < n; summed++ {
			sum += r
		}
		s.rates[i] = sum * s.eff[i]
	}
	return s.rates[:len(s.counts)]
}

// configCandidates refills buf with the framework configurations the oracle
// sweeps for a configured job on cores-core servers: base with every
// combination of mappers per node, heap size and compression.
func configCandidates(buf []FrameworkConfig, base *FrameworkConfig, cores int) []FrameworkConfig {
	buf = buf[:0]
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
// count that first achieved it.
//
// It evaluates the genome once per platform and distinct EffectiveCores
// (the only way a configuration reaches it), the configuration term once
// per candidate, and every node count from that one node rate; the result
// is bit-identical to calling CompletionTime on each allocation.
func sweepCompletion(w *Instance, platforms []cluster.Platform, maxNodes int) (best float64, plat int, cfg FrameworkConfig, nodes int) {
	so := newScaleOut(w.Genome, maxNodes)
	var candBuf [3 * 4 * 2]FrameworkConfig
	best, plat, nodes = math.Inf(1), -1, 1
	try := func(pi int, r float64, c *FrameworkConfig) {
		for i, rate := range so.jobRates(r) {
			if t := w.completionAt(rate); t < best {
				best, plat, nodes = t, pi, so.counts[i]
				if c != nil {
					cfg = *c
				}
			}
		}
	}
	for pi := range platforms {
		p := &platforms[pi]
		whole := cluster.Alloc{Cores: p.Cores, MemoryGB: p.MemoryGB}
		if w.Config == nil {
			try(pi, w.Genome.NodeRate(p, whole, cluster.ResVec{}), nil)
			continue
		}
		// The genome's rate per distinct EffectiveCores on p; the
		// candidates' three mapper settings give at most three.
		var genome [3]struct {
			cores int
			rate  float64
		}
		seen := 0
		cands := configCandidates(candBuf[:0], w.Config, p.Cores)
		for ci := range cands {
			eff := w.effect(&cands[ci], p.Cores)
			j := 0
			for j < seen && genome[j].cores != eff.EffectiveCores {
				j++
			}
			if j == seen {
				effAlloc := cluster.Alloc{Cores: eff.EffectiveCores, MemoryGB: whole.MemoryGB}
				genome[j].cores = eff.EffectiveCores
				genome[j].rate = w.Genome.NodeRate(p, effAlloc, cluster.ResVec{})
				seen++
			}
			try(pi, eff.rate(genome[j].rate, whole.MemoryGB), &cands[ci])
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
	so := newScaleOut(w.Genome, maxNodes)
	best := 0.0
	for pi := range platforms {
		p := &platforms[pi]
		r := w.NodeRate(p, cluster.Alloc{Cores: p.Cores, MemoryGB: p.MemoryGB}, cluster.ResVec{})
		for _, rate := range so.jobRates(r) {
			if c := rate * w.Genome.QPSPerUnit; c > best {
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
