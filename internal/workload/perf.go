package workload

import (
	"math"

	"quasar/internal/cluster"
	"quasar/internal/perfmodel"
)

// The functions in this file are the single bridge between a workload
// instance and its ground-truth performance: they wrap the genome's
// perfmodel surfaces with the framework-configuration effects. Both the
// simulated runtime (when "measuring" live performance) and the experiment
// oracles go through these, so configured and unconfigured workloads are
// always evaluated consistently.

// taskHeapNeedGB derives the per-task heap requirement of a configured job
// from its genome (memory-hungrier jobs need bigger heaps).
func (w *Instance) taskHeapNeedGB() float64 {
	need := w.Genome.MemNeedGB / 16
	if need < 0.25 {
		need = 0.25
	}
	if need > 2 {
		need = 2
	}
	return need
}

// ioBoundFrac derives the I/O-bound fraction of a configured job from its
// disk sensitivity.
func (w *Instance) ioBoundFrac() float64 {
	return w.Genome.Sens[cluster.ResDiskIO]
}

// NodeRate returns the true work rate of this workload on one server with
// the given allocation and neighbour pressure, applying framework
// configuration effects when present.
func (w *Instance) NodeRate(p *cluster.Platform, alloc cluster.Alloc, pressure cluster.ResVec) float64 {
	if w.Config == nil {
		return w.Genome.NodeRate(p, alloc, pressure)
	}
	eff := w.effect(w.Config, alloc.Cores)
	effAlloc := cluster.Alloc{Cores: eff.EffectiveCores, MemoryGB: alloc.MemoryGB}
	return eff.rate(w.Genome.NodeRate(p, effAlloc, pressure), alloc.MemoryGB)
}

// effect evaluates configuration c for this workload on a node with
// allocCores allocated cores.
func (w *Instance) effect(c *FrameworkConfig, allocCores int) ConfigEffect {
	return c.Effect(w.taskHeapNeedGB(), allocCores, w.ioBoundFrac())
}

// rate is the configuration term of a configured node rate: genomeRate is
// the genome's rate on the node at EffectiveCores cores and the node's
// allocated memory, memoryGB.
func (e *ConfigEffect) rate(genomeRate, memoryGB float64) float64 {
	rate := genomeRate * e.RateMult
	// The framework's own memory footprint (heaps) competes with the
	// dataset working set already modeled by the genome.
	if memoryGB < e.MemoryGB {
		rate *= math.Pow(memoryGB/e.MemoryGB, 0.7)
	}
	return rate
}

// CausedPressure returns the shared-resource pressure this workload exerts
// at the given allocation, including configuration effects (replication
// multiplies disk writes).
func (w *Instance) CausedPressure(p *cluster.Platform, alloc cluster.Alloc) cluster.ResVec {
	v := w.Genome.CausedPressure(p, alloc)
	if w.Config != nil {
		eff := w.effect(w.Config, alloc.Cores)
		v[cluster.ResDiskIO] *= eff.DiskMult
		if v[cluster.ResDiskIO] > 1 {
			v[cluster.ResDiskIO] = 1
		}
	}
	return v
}

// JobRate aggregates NodeRate over a multi-node allocation with the
// genome's scale-out efficiency.
func (w *Instance) JobRate(nodes []perfmodel.NodeAlloc) float64 {
	sum := 0.0
	for _, n := range nodes {
		sum += w.NodeRate(n.Platform, n.Alloc, n.Pressure)
	}
	return sum * w.Genome.ScaleOutEfficiency(len(nodes))
}

// UniformJobRate is JobRate over n nodes that each run at rate r. It adds r
// n times, in JobRate's order, so it returns JobRate's bits without the
// n-node slice.
func (w *Instance) UniformJobRate(r float64, n int) float64 {
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r
	}
	return sum * w.Genome.ScaleOutEfficiency(n)
}

// CompletionTime returns the true execution time of a batch workload on the
// given allocation.
func (w *Instance) CompletionTime(nodes []perfmodel.NodeAlloc) float64 {
	return w.completionAt(w.JobRate(nodes))
}

// completionAt returns the execution time of a batch workload running at
// the given job rate, or +Inf for a non-positive rate.
func (w *Instance) completionAt(rate float64) float64 {
	if rate <= 0 {
		return math.Inf(1)
	}
	return w.Genome.Work / rate
}

// CapacityQPS returns the true saturation throughput of a latency service
// on the given allocation.
func (w *Instance) CapacityQPS(nodes []perfmodel.NodeAlloc) float64 {
	return w.JobRate(nodes) * w.Genome.QPSPerUnit
}
