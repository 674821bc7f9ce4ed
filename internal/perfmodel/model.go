// Package perfmodel holds the ground-truth performance surfaces of the
// simulated workloads — the stand-in for real hardware measurements.
//
// Every workload instance carries a hidden Genome. The model maps
// (genome, platform, per-node allocation, interference pressure, node count)
// to a throughput rate, and for latency-critical services to a
// latency/throughput curve. The cluster manager never reads the genome; it
// only observes (noisy) performance numbers, exactly as Quasar observes
// profiling results on real machines. The surfaces are shaped to match the
// variability reported in Figure 2 of the paper: up to ~7x across platforms,
// ~10x across scale-up allocations, ~10x under interference, sublinear to
// superlinear scale-out, and ~3x across datasets.
package perfmodel

import (
	"math"
	"slices"

	"quasar/internal/cluster"
)

// Genome is the hidden parameter vector of one workload instance.
type Genome struct {
	// BaseRate is work units per second achieved by one core of a
	// CorePerf=1.0 platform with sufficient memory and no interference.
	BaseRate float64

	// affinity[i] multiplies per-core performance on the platform named
	// affinityNames[i], capturing microarchitectural match beyond raw
	// CorePerf (cache fit, memory system balance). affinityNames is the
	// family's sorted, duplicate-free platform list, shared by every
	// instance of the family; Affinity looks a name up in it.
	affinityNames []string
	affinity      []float64

	// Alpha is the scale-up exponent: node rate grows as cores^Alpha.
	Alpha float64

	// Parallelism caps the cores the workload can exploit on one node;
	// cores beyond it are allocated-but-idle (the waste reservations
	// create). Single-node benchmarks have low parallelism; services and
	// framework tasks high.
	Parallelism float64

	// MemNeedGB is the per-node working set; below it performance degrades
	// as (mem/need)^MemCurve.
	MemNeedGB float64
	MemCurve  float64

	// Beta is the scale-out exponent: n nodes deliver n^Beta the rate of
	// one (serial fractions push Beta below 1; cache-aggregation effects
	// can push it slightly above).
	Beta float64

	// Sens is the sensitivity to interference per shared resource in
	// [0,1]: the fraction of performance lost when that resource is fully
	// contended. Caused is the pressure this workload exerts per resource
	// when it occupies a whole reference node.
	Sens   cluster.ResVec
	Caused cluster.ResVec

	// Work is the total job size in work units (batch workloads).
	Work float64

	// ServiceUS is the zero-load request latency in microseconds and
	// TailFactor the p99/mean multiplier at saturation (latency services).
	ServiceUS  float64
	TailFactor float64

	// QPSPerUnit converts the throughput rate into queries per second for
	// latency services (a rate of r sustains r*QPSPerUnit QPS).
	QPSPerUnit float64

	// NoiseCV is the coefficient of variation of measurement noise.
	NoiseCV float64
}

// InterferencePenalty returns the multiplicative slowdown in (0,1] a
// workload with sensitivity sens suffers under the given resource pressure.
// Each resource contributes (1 - sens_r * sat(pressure_r)); contributions
// compound multiplicatively, so a workload sensitive to several heavily
// contended resources can slow down by an order of magnitude, matching the
// interference spread in Figure 2.
func InterferencePenalty(sens, pressure cluster.ResVec) float64 {
	pen := 1.0
	for r := 0; r < int(cluster.NumResources); r++ {
		p := pressure[r]
		if p > 1 {
			p = 1
		}
		f := 1 - sens[r]*p
		if f < 0.02 {
			f = 0.02 // a workload never fully stops; it crawls
		}
		pen *= f
	}
	return pen
}

// memFactor returns the memory-sufficiency multiplier for an allocation of
// memGB against the genome's working set.
func (g *Genome) memFactor(memGB float64) float64 {
	if memGB >= g.MemNeedGB {
		return 1
	}
	if memGB <= 0 {
		return 0
	}
	return math.Pow(memGB/g.MemNeedGB, g.MemCurve)
}

// Affinity returns the per-core performance multiplier on the named
// platform, or 1 for a platform the genome was not drawn for.
func (g *Genome) Affinity(platform string) float64 {
	if i, ok := slices.BinarySearch(g.affinityNames, platform); ok {
		return g.affinity[i]
	}
	return 1
}

// NodeRate returns the work rate (units/sec) this genome achieves on one
// server of platform p with the given allocation, under the given
// shared-resource pressure from neighbours.
func (g *Genome) NodeRate(p *cluster.Platform, alloc cluster.Alloc, pressure cluster.ResVec) float64 {
	if !alloc.Valid() {
		return 0
	}
	cores := float64(alloc.Cores)
	if cores > float64(p.Cores) {
		cores = float64(p.Cores)
	}
	if g.Parallelism > 0 && cores > g.Parallelism {
		cores = g.Parallelism
	}
	// Diminishing returns apply to total compute (cores x per-core perf):
	// rate = base * affinity * (cores*CorePerf)^alpha. This keeps whole-node
	// heterogeneity in the ~3-7x range of Fig. 2 while scale-up within the
	// largest node still spans ~an order of magnitude with memory effects.
	rate := g.BaseRate * g.Affinity(p.Name) * math.Pow(cores*p.CorePerf, g.Alpha)
	rate *= g.memFactor(alloc.MemoryGB)
	rate *= InterferencePenalty(g.Sens, pressure)
	return rate
}

// ScaleOutEfficiency returns the multiplier applied to the summed node rates
// when the job runs on n nodes: n^(Beta-1).
func (g *Genome) ScaleOutEfficiency(n int) float64 {
	if n <= 1 {
		return 1
	}
	return math.Pow(float64(n), g.Beta-1)
}

// NodeAlloc pairs a platform with an allocation and local pressure; JobRate
// aggregates a distributed allocation.
type NodeAlloc struct {
	Platform *cluster.Platform
	Alloc    cluster.Alloc
	Pressure cluster.ResVec
}

// JobRate returns the aggregate work rate of a (possibly heterogeneous,
// multi-node) allocation, including the scale-out efficiency factor.
func (g *Genome) JobRate(nodes []NodeAlloc) float64 {
	sum := 0.0
	for _, n := range nodes {
		sum += g.NodeRate(n.Platform, n.Alloc, n.Pressure)
	}
	return sum * g.ScaleOutEfficiency(len(nodes))
}

// CompletionTime returns the execution time in seconds for the genome's
// total Work at the given aggregate allocation, or +Inf for a zero rate.
func (g *Genome) CompletionTime(nodes []NodeAlloc) float64 {
	rate := g.JobRate(nodes)
	if rate <= 0 {
		return math.Inf(1)
	}
	return g.Work / rate
}

// CapacityQPS returns the saturation throughput of a latency service on the
// given allocation.
func (g *Genome) CapacityQPS(nodes []NodeAlloc) float64 {
	return g.JobRate(nodes) * g.QPSPerUnit
}

// Latency returns the mean and 99th-percentile request latency in
// microseconds when offered load lambda (QPS) hits a service with the given
// capacity. The shape is an M/M/1-style knee: flat near zero load, explosive
// past ~80% utilization — matching the latency-throughput curves of Fig. 2.
// At or beyond saturation the service sheds load; latency is reported at an
// effective 99% utilization.
func (g *Genome) Latency(lambda, capacity float64) (mean, p99 float64) {
	if capacity <= 0 {
		return math.Inf(1), math.Inf(1)
	}
	rho := lambda / capacity
	if rho > 0.99 {
		rho = 0.99
	}
	if rho < 0 {
		rho = 0
	}
	mean = g.ServiceUS / (1 - rho)
	p99 = g.ServiceUS * (1 + g.TailFactor*rho/(1-rho))
	if p99 < mean {
		p99 = mean
	}
	return mean, p99
}

// QPSAtQoS returns the highest offered load the service can sustain while
// keeping 99th-percentile latency within boundUS, given its capacity. This
// is the knee position of the latency-throughput curve (Fig. 2, bottom row)
// and the metric latency-critical workloads are profiled and classified by.
func (g *Genome) QPSAtQoS(capacity, boundUS float64) float64 {
	if capacity <= 0 || boundUS <= g.ServiceUS {
		return 0
	}
	// p99(ρ) = S·(1 + T·ρ/(1-ρ)) = bound  =>  ρ* = x/(T+x), x = bound/S - 1.
	x := boundUS/g.ServiceUS - 1
	rho := x / (g.TailFactor + x)
	if rho > 0.99 {
		rho = 0.99
	}
	return rho * capacity
}

// AchievedQPS returns the throughput actually served under offered load
// lambda: min(lambda, capacity).
func (g *Genome) AchievedQPS(lambda, capacity float64) float64 {
	if lambda > capacity {
		return capacity
	}
	return lambda
}

// UsefulCores returns how many of the allocated cores the workload actually
// keeps busy at the given load factor (1.0 for batch work, achieved/capacity
// for services). Cores beyond the genome's parallelism idle — the source of
// the reservation waste in Figures 1 and 11d.
func (g *Genome) UsefulCores(alloc cluster.Alloc, loadFactor float64) float64 {
	c := float64(alloc.Cores)
	if g.Parallelism > 0 && c > g.Parallelism {
		c = g.Parallelism
	}
	if loadFactor < 0 {
		loadFactor = 0
	}
	if loadFactor > 1 {
		loadFactor = 1
	}
	return c * loadFactor
}

// UsefulMemGB returns the memory the workload actually touches out of an
// allocation.
func (g *Genome) UsefulMemGB(alloc cluster.Alloc) float64 {
	if alloc.MemoryGB < g.MemNeedGB {
		return alloc.MemoryGB
	}
	return g.MemNeedGB
}

// CausedPressure returns the shared-resource pressure a placement of this
// genome exerts on a server of platform p with the given allocation. Core-
// bound resources scale with the allocated core fraction; bandwidth-bound
// resources are additionally normalized by the platform's capacity relative
// to the reference platform, so big machines absorb more colocation.
func (g *Genome) CausedPressure(p *cluster.Platform, alloc cluster.Alloc) cluster.ResVec {
	var out cluster.ResVec
	if p.Cores == 0 {
		return out
	}
	coreFrac := float64(alloc.Cores) / float64(p.Cores)
	if coreFrac > 1 {
		coreFrac = 1
	}
	// Reference capacities: platform A of the local cluster.
	const (
		refCacheMB = 1.0
		refMemBW   = 4.0
		refDiskBW  = 60.0
		refNetBW   = 1.0
	)
	for r := 0; r < int(cluster.NumResources); r++ {
		v := g.Caused[r] * coreFrac
		switch cluster.Resource(r) {
		case cluster.ResLLC, cluster.ResL2, cluster.ResL1I:
			v *= refCacheMB * 4 / math.Max(p.CacheMB, 0.5)
		case cluster.ResMemBW, cluster.ResPrefetch:
			v *= refMemBW * 2 / math.Max(p.MemBWGBs, 1)
		case cluster.ResDiskIO:
			v = g.Caused[r] * refDiskBW / math.Max(p.DiskBWMBs, 1)
		case cluster.ResNetBW:
			v = g.Caused[r] * refNetBW / math.Max(p.NetBWGbs, 0.1)
		case cluster.ResMemCap:
			v = g.Caused[r] * alloc.MemoryGB / p.MemoryGB
		}
		if v > 1 {
			v = 1
		}
		out[r] = v
	}
	return out
}
