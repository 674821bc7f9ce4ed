package classify

import (
	"quasar/internal/cluster"
	"quasar/internal/interference"
	"quasar/internal/perfmodel"
	"quasar/internal/sim"
	"quasar/internal/workload"
)

// Prober supplies profiling measurements for one workload. The engine
// decides *what* to probe; the prober decides *how* — against the ground-
// truth model directly (validation harnesses) or via sandboxed profiling
// runs that consume simulated time and server capacity (the runtime).
//
// All performance numbers are in the workload's own metric (work rate for
// batch, QPS-at-QoS for latency services), matching the paper: "profiling
// collects performance measurements in the format of each application's
// performance goal".
type Prober interface {
	// ScaleUp measures performance at the given allocation on the
	// profiling platform.
	ScaleUp(alloc cluster.Alloc) float64
	// ScaleOut measures the relative scaling factor rate(n)/rate(1) at n
	// nodes of the profiling platform with the given per-node allocation.
	ScaleOut(n int, alloc cluster.Alloc) float64
	// Heterogeneity measures whole-node performance on the given platform.
	Heterogeneity(platformIdx int) float64
	// ToleratedIntensity ramps a microbenchmark in resource r against the
	// workload and returns the tolerated intensity (see
	// interference.ProbeTolerance).
	ToleratedIntensity(r cluster.Resource) float64
	// CausedIntensity measures the pressure the workload itself exerts in
	// resource r at a reference allocation.
	CausedIntensity(r cluster.Resource) float64
}

// TunedConfig returns the framework parameters Quasar uses for a configured
// workload at a given allocation: one mapper per allocated core, heap sized
// to the memory share, gzip when the job is disk-bound (Table 3). Profiling
// runs use diskSensitive=false (lzo) before interference classification has
// run; the final assignment re-tunes with the classified sensitivity.
func TunedConfig(cores int, memGB float64, diskSensitive bool) workload.FrameworkConfig {
	heap := memGB * 0.75 / float64(cores)
	if heap < 0.5 {
		heap = 0.5
	}
	if heap > 1.5 {
		heap = 1.5
	}
	comp := workload.CompressionLZO
	if diskSensitive {
		comp = workload.CompressionGzip
	}
	return workload.FrameworkConfig{
		MappersPerNode: cores,
		HeapsizeGB:     heap,
		BlockSizeMB:    64,
		Replication:    2,
		Compression:    comp,
	}
}

// GroundTruthProber measures straight against the hidden genome with
// realistic measurement noise. It stands in for the sandboxed profiling
// runs of §4.2: short runs observe the true performance surface plus noise.
type GroundTruthProber struct {
	W         *workload.Instance
	Platforms []cluster.Platform
	// ProfilingPlatform is the index used for scale-up/scale-out probes
	// (the highest-end platform per the paper).
	ProfilingPlatform int
	RNG               *sim.RNG
	// NoiseCV overrides the genome's measurement noise when positive.
	NoiseCV float64

	// tuned is the configuration W.Config points to while nodeRate
	// measures a configured workload.
	tuned workload.FrameworkConfig
}

// NewGroundTruthProber builds a prober for w over the platform set.
func NewGroundTruthProber(w *workload.Instance, platforms []cluster.Platform, rng *sim.RNG) *GroundTruthProber {
	return &GroundTruthProber{
		W:                 w,
		Platforms:         platforms,
		ProfilingPlatform: cluster.HighestEnd(platforms),
		RNG:               rng,
	}
}

func (p *GroundTruthProber) noise(x float64) float64 {
	cv := p.NoiseCV
	if cv <= 0 {
		cv = p.W.Genome.NoiseCV
	}
	if p.RNG == nil {
		return x
	}
	return p.RNG.Jitter(x, cv)
}

// perfAt returns the workload's true performance metric on n nodes of the
// platform, each with the same allocation and pressure.
func (p *GroundTruthProber) perfAt(platformIdx, n int, alloc cluster.Alloc, pressure cluster.ResVec) float64 {
	return p.metric(p.W.UniformJobRate(p.nodeRate(platformIdx, alloc, pressure), n))
}

// nodeRate returns the workload's true work rate on one node of the
// platform. Configured workloads are profiled with the tuned configuration
// for the allocation.
func (p *GroundTruthProber) nodeRate(platformIdx int, alloc cluster.Alloc, pressure cluster.ResVec) float64 {
	w := p.W
	if origCfg := w.Config; origCfg != nil {
		p.tuned = TunedConfig(alloc.Cores, alloc.MemoryGB, false)
		w.Config = &p.tuned
		defer func() { w.Config = origCfg }()
	}
	return w.NodeRate(&p.Platforms[platformIdx], alloc, pressure)
}

// metric turns a job rate into the workload's performance metric: the rate
// itself for batch work, QPS at the latency bound for a service.
func (p *GroundTruthProber) metric(rate float64) float64 {
	w := p.W
	if w.Type.Class() == perfmodel.LatencyCritical {
		capQPS := rate * w.Genome.QPSPerUnit
		bound := w.Target.LatencyUS
		if bound <= 0 {
			bound = w.Genome.ServiceUS * 4
		}
		return w.Genome.QPSAtQoS(capQPS, bound)
	}
	return rate
}

// ScaleUp implements Prober.
func (p *GroundTruthProber) ScaleUp(alloc cluster.Alloc) float64 {
	return p.noise(p.perfAt(p.ProfilingPlatform, 1, alloc, cluster.ResVec{}))
}

// ScaleOut implements Prober. One node rate serves both counts.
func (p *GroundTruthProber) ScaleOut(n int, alloc cluster.Alloc) float64 {
	r := p.nodeRate(p.ProfilingPlatform, alloc, cluster.ResVec{})
	one := p.metric(p.W.UniformJobRate(r, 1))
	if one <= 0 {
		return 0
	}
	return p.noise(p.metric(p.W.UniformJobRate(r, n)) / one)
}

// Heterogeneity implements Prober.
func (p *GroundTruthProber) Heterogeneity(platformIdx int) float64 {
	plat := &p.Platforms[platformIdx]
	alloc := cluster.Alloc{Cores: plat.Cores, MemoryGB: plat.MemoryGB}
	return p.noise(p.perfAt(platformIdx, 1, alloc, cluster.ResVec{}))
}

// ToleratedIntensity implements Prober: it ramps a single-resource
// microbenchmark against the workload at a mid-size allocation on the
// profiling platform.
func (p *GroundTruthProber) ToleratedIntensity(r cluster.Resource) float64 {
	plat := &p.Platforms[p.ProfilingPlatform]
	alloc := cluster.Alloc{Cores: max(1, plat.Cores/2), MemoryGB: plat.MemoryGB / 2}
	measure := func(extra cluster.ResVec) float64 {
		return p.perfAt(p.ProfilingPlatform, 1, alloc, extra)
	}
	tol := interference.ProbeTolerance(measure, r, interference.DefaultQoSDrop, 20)
	return p.noise(tol)
}

// CausedIntensity implements Prober: the true pressure the workload exerts
// in resource r at a half-node allocation on the profiling platform.
func (p *GroundTruthProber) CausedIntensity(r cluster.Resource) float64 {
	plat := &p.Platforms[p.ProfilingPlatform]
	alloc := cluster.Alloc{Cores: max(1, plat.Cores/2), MemoryGB: plat.MemoryGB / 2}
	return p.noise(p.W.CausedPressure(plat, alloc)[r])
}
