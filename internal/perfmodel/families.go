package perfmodel

import (
	"fmt"
	"math"
	"sort"

	"quasar/internal/cluster"
	"quasar/internal/sim"
)

// Class is the broad workload category; it determines which performance
// constraint applies (paper §3.1) and which allocation knobs exist.
type Class int

const (
	// Analytics workloads (Hadoop/Storm/Spark-style) have an execution-
	// time constraint and can scale up and out.
	Analytics Class = iota
	// LatencyCritical services (memcached/Cassandra/webserver-style) have
	// a QPS + tail-latency constraint and can scale up and out.
	LatencyCritical
	// SingleNode workloads (SPEC/PARSEC-style) have an IPS constraint and
	// can only scale up.
	SingleNode
)

func (c Class) String() string {
	switch c {
	case Analytics:
		return "analytics"
	case LatencyCritical:
		return "latency-critical"
	case SingleNode:
		return "single-node"
	}
	return fmt.Sprintf("class(%d)", int(c))
}

// Archetype bounds the genome distribution of a workload family. Families
// are drawn from archetypes; instances from families. This two-level
// hierarchy gives the performance matrix the correlated, approximately
// low-rank structure that collaborative filtering exploits (workloads in the
// same family behave alike).
type Archetype struct {
	Name  string
	Class Class

	BaseRateLo, BaseRateHi float64
	AlphaLo, AlphaHi       float64 // scale-up exponent range
	ParLo, ParHi           float64 // per-node parallelism range (0 = unbounded)
	BetaLo, BetaHi         float64 // scale-out exponent range
	MemNeedLo, MemNeedHi   float64 // GB per node
	MemCurveLo, MemCurveHi float64
	CacheNeedMB            float64 // cache working set; platforms below pay an affinity penalty
	AffinitySigma          float64 // log-normal spread of platform affinity

	Sens   cluster.ResVec // mean sensitivity per resource
	Caused cluster.ResVec // mean caused pressure per resource

	WorkLo, WorkHi float64 // batch job size range (work units)

	ServiceUSLo, ServiceUSHi float64 // latency services
	TailLo, TailHi           float64
	QPSPerUnit               float64

	NoiseCV float64
}

// vec is shorthand for building a ResVec literal in resource order:
// cpu, l1i, l2, llc, membw, memcap, prefetch, disk, net.
func vec(cpu, l1i, l2, llc, membw, memcap, prefetch, disk, net float64) cluster.ResVec {
	return cluster.ResVec{cpu, l1i, l2, llc, membw, memcap, prefetch, disk, net}
}

// Archetypes returns the built-in workload archetypes, mirroring the
// paper's evaluation mix: Hadoop/Mahout data mining, Storm streaming, Spark
// in-memory analytics, memcached, Cassandra, a HotCRP-like webserver, and
// several single-node benchmark archetypes (SPEC-like integer/floating
// point, PARSEC-like parallel, data-mining kernels).
func Archetypes() []Archetype {
	return []Archetype{
		{
			Name: "hadoop", Class: Analytics,
			BaseRateLo: 0.8, BaseRateHi: 1.4,
			AlphaLo: 0.45, AlphaHi: 0.70,
			BetaLo: 0.75, BetaHi: 1.10,
			MemNeedLo: 4, MemNeedHi: 16, MemCurveLo: 0.3, MemCurveHi: 0.8,
			CacheNeedMB: 8, AffinitySigma: 0.18,
			Sens:   vec(0.35, 0.10, 0.25, 0.45, 0.40, 0.30, 0.20, 0.55, 0.25),
			Caused: vec(0.50, 0.10, 0.25, 0.40, 0.45, 0.30, 0.25, 0.60, 0.20),
			WorkLo: 2e4, WorkHi: 4e5, // hours-long jobs at single-node rates
			NoiseCV: 0.04,
		},
		{
			Name: "spark", Class: Analytics,
			BaseRateLo: 1.2, BaseRateHi: 2.0,
			AlphaLo: 0.65, AlphaHi: 0.90,
			BetaLo: 0.70, BetaHi: 1.00,
			MemNeedLo: 10, MemNeedHi: 24, MemCurveLo: 1.0, MemCurveHi: 2.0,
			CacheNeedMB: 12, AffinitySigma: 0.20,
			Sens:   vec(0.30, 0.10, 0.30, 0.55, 0.60, 0.65, 0.30, 0.15, 0.30),
			Caused: vec(0.45, 0.10, 0.30, 0.55, 0.65, 0.60, 0.35, 0.10, 0.25),
			WorkLo: 1e4, WorkHi: 1.5e5,
			NoiseCV: 0.04,
		},
		{
			Name: "storm", Class: Analytics,
			BaseRateLo: 1.0, BaseRateHi: 1.8,
			AlphaLo: 0.70, AlphaHi: 0.95,
			BetaLo: 0.85, BetaHi: 1.10,
			MemNeedLo: 2, MemNeedHi: 8, MemCurveLo: 0.4, MemCurveHi: 0.9,
			CacheNeedMB: 4, AffinitySigma: 0.15,
			Sens:   vec(0.45, 0.15, 0.25, 0.35, 0.30, 0.15, 0.20, 0.10, 0.60),
			Caused: vec(0.55, 0.15, 0.25, 0.30, 0.35, 0.15, 0.20, 0.05, 0.55),
			WorkLo: 1e4, WorkHi: 1e5,
			NoiseCV: 0.05,
		},
		{
			Name: "memcached", Class: LatencyCritical,
			BaseRateLo: 1.5, BaseRateHi: 2.5,
			AlphaLo: 0.75, AlphaHi: 0.95, ParLo: 24, ParHi: 64,
			BetaLo: 0.90, BetaHi: 1.05,
			MemNeedLo: 8, MemNeedHi: 32, MemCurveLo: 1.5, MemCurveHi: 2.5,
			CacheNeedMB: 6, AffinitySigma: 0.15,
			Sens:        vec(0.50, 0.45, 0.40, 0.55, 0.45, 0.60, 0.30, 0.05, 0.55),
			Caused:      vec(0.40, 0.35, 0.30, 0.40, 0.40, 0.55, 0.25, 0.02, 0.50),
			ServiceUSLo: 80, ServiceUSHi: 180, TailLo: 2.5, TailHi: 4.5,
			QPSPerUnit: 8000,
			NoiseCV:    0.05,
		},
		{
			Name: "cassandra", Class: LatencyCritical,
			BaseRateLo: 0.8, BaseRateHi: 1.4,
			AlphaLo: 0.60, AlphaHi: 0.85, ParLo: 16, ParHi: 48,
			BetaLo: 0.85, BetaHi: 1.00,
			MemNeedLo: 8, MemNeedHi: 24, MemCurveLo: 0.8, MemCurveHi: 1.5,
			CacheNeedMB: 8, AffinitySigma: 0.15,
			Sens:        vec(0.30, 0.15, 0.20, 0.35, 0.30, 0.40, 0.15, 0.75, 0.35),
			Caused:      vec(0.30, 0.10, 0.20, 0.30, 0.30, 0.40, 0.15, 0.80, 0.30),
			ServiceUSLo: 4000, ServiceUSHi: 12000, TailLo: 2.0, TailHi: 3.5,
			QPSPerUnit: 500,
			NoiseCV:    0.05,
		},
		{
			Name: "webserver", Class: LatencyCritical,
			BaseRateLo: 1.0, BaseRateHi: 1.8,
			AlphaLo: 0.70, AlphaHi: 0.95, ParLo: 24, ParHi: 64,
			BetaLo: 0.90, BetaHi: 1.05,
			MemNeedLo: 2, MemNeedHi: 10, MemCurveLo: 0.6, MemCurveHi: 1.2,
			CacheNeedMB: 4, AffinitySigma: 0.16,
			Sens:        vec(0.55, 0.35, 0.35, 0.45, 0.35, 0.25, 0.20, 0.10, 0.50),
			Caused:      vec(0.55, 0.25, 0.30, 0.35, 0.35, 0.20, 0.20, 0.05, 0.45),
			ServiceUSLo: 8000, ServiceUSHi: 30000, TailLo: 1.8, TailHi: 3.0,
			QPSPerUnit: 60,
			NoiseCV:    0.05,
		},
		{
			Name: "spec-int", Class: SingleNode,
			BaseRateLo: 0.8, BaseRateHi: 1.6,
			AlphaLo: 0.10, AlphaHi: 0.35, ParLo: 1, ParHi: 3, // mostly single-threaded
			BetaLo: 1.0, BetaHi: 1.0,
			MemNeedLo: 0.5, MemNeedHi: 4, MemCurveLo: 0.5, MemCurveHi: 1.0,
			CacheNeedMB: 6, AffinitySigma: 0.22,
			Sens:   vec(0.30, 0.25, 0.45, 0.60, 0.40, 0.10, 0.35, 0.02, 0.02),
			Caused: vec(0.35, 0.15, 0.35, 0.50, 0.40, 0.10, 0.30, 0.02, 0.02),
			WorkLo: 400, WorkHi: 4000,
			NoiseCV: 0.03,
		},
		{
			Name: "spec-fp", Class: SingleNode,
			BaseRateLo: 0.8, BaseRateHi: 1.6,
			AlphaLo: 0.10, AlphaHi: 0.30, ParLo: 1, ParHi: 3,
			BetaLo: 1.0, BetaHi: 1.0,
			MemNeedLo: 1, MemNeedHi: 6, MemCurveLo: 0.6, MemCurveHi: 1.2,
			CacheNeedMB: 10, AffinitySigma: 0.25,
			Sens:   vec(0.25, 0.10, 0.35, 0.50, 0.65, 0.15, 0.45, 0.02, 0.02),
			Caused: vec(0.30, 0.05, 0.30, 0.45, 0.70, 0.15, 0.45, 0.02, 0.02),
			WorkLo: 400, WorkHi: 4000,
			NoiseCV: 0.03,
		},
		{
			Name: "parsec", Class: SingleNode,
			BaseRateLo: 1.0, BaseRateHi: 2.0,
			AlphaLo: 0.55, AlphaHi: 0.90, ParLo: 8, ParHi: 24, // parallel, scales with cores
			BetaLo: 1.0, BetaHi: 1.0,
			MemNeedLo: 1, MemNeedHi: 8, MemCurveLo: 0.5, MemCurveHi: 1.0,
			CacheNeedMB: 8, AffinitySigma: 0.20,
			Sens:   vec(0.50, 0.15, 0.30, 0.45, 0.50, 0.15, 0.30, 0.02, 0.05),
			Caused: vec(0.55, 0.10, 0.30, 0.45, 0.55, 0.15, 0.30, 0.02, 0.05),
			WorkLo: 600, WorkHi: 6000,
			NoiseCV: 0.03,
		},
		{
			Name: "mining-kernel", Class: SingleNode,
			BaseRateLo: 0.9, BaseRateHi: 1.8,
			AlphaLo: 0.40, AlphaHi: 0.80, ParLo: 4, ParHi: 16,
			BetaLo: 1.0, BetaHi: 1.0,
			MemNeedLo: 2, MemNeedHi: 12, MemCurveLo: 0.8, MemCurveHi: 1.5,
			CacheNeedMB: 16, AffinitySigma: 0.22,
			Sens:   vec(0.35, 0.10, 0.30, 0.65, 0.55, 0.30, 0.40, 0.05, 0.02),
			Caused: vec(0.40, 0.05, 0.30, 0.60, 0.60, 0.30, 0.40, 0.05, 0.02),
			WorkLo: 600, WorkHi: 6000,
			NoiseCV: 0.03,
		},
	}
}

// ArchetypeByName returns the named archetype.
func ArchetypeByName(name string) (Archetype, error) {
	for _, a := range Archetypes() {
		if a.Name == name {
			return a, nil
		}
	}
	return Archetype{}, fmt.Errorf("perfmodel: unknown archetype %q", name)
}

// Family is a concrete workload family drawn from an archetype: a fixed base
// genome that instances perturb. Two instances of a family are similar but
// not identical, like two submissions of the same Mahout job with different
// datasets.
type Family struct {
	Name      string
	Archetype Archetype
	Base      Genome

	// affinityNames holds Base.Affinity's keys, sorted: Instantiate draws
	// jitter in this order (map order would make genomes irreproducible).
	affinityNames []string
}

// NewFamily draws a family from the archetype for the given platform set.
func NewFamily(name string, arch Archetype, platforms []cluster.Platform, rng *sim.RNG) *Family {
	g := Genome{
		BaseRate: rng.Uniform(arch.BaseRateLo, arch.BaseRateHi),
		Alpha:    rng.Uniform(arch.AlphaLo, arch.AlphaHi),
		Parallelism: func() float64 {
			if arch.ParHi <= 0 {
				return 0
			}
			return rng.Uniform(arch.ParLo, arch.ParHi)
		}(),
		Beta:       rng.Uniform(arch.BetaLo, arch.BetaHi),
		MemNeedGB:  rng.Uniform(arch.MemNeedLo, arch.MemNeedHi),
		MemCurve:   rng.Uniform(arch.MemCurveLo, arch.MemCurveHi),
		TailFactor: rng.Uniform(arch.TailLo, arch.TailHi),
		QPSPerUnit: arch.QPSPerUnit,
		NoiseCV:    arch.NoiseCV,
		Affinity:   make(map[string]float64, len(platforms)),
	}
	if arch.WorkHi > 0 {
		g.Work = rng.Pareto(1.2, arch.WorkLo, arch.WorkHi)
	}
	if arch.ServiceUSHi > 0 {
		g.ServiceUS = rng.Uniform(arch.ServiceUSLo, arch.ServiceUSHi)
	}
	cacheNeed := arch.CacheNeedMB * rng.Uniform(0.6, 1.6)
	for _, p := range platforms {
		fit := 1.0
		if p.CacheMB < cacheNeed {
			fit = math.Pow(p.CacheMB/cacheNeed, 0.2)
		}
		g.Affinity[p.Name] = rng.LogNormal(0, arch.AffinitySigma) * fit
	}
	for r := 0; r < int(cluster.NumResources); r++ {
		g.Sens[r] = clamp01(arch.Sens[r] * rng.Uniform(0.6, 1.4))
		g.Caused[r] = clamp01(arch.Caused[r] * rng.Uniform(0.6, 1.4))
	}
	names := make([]string, 0, len(g.Affinity))
	for name := range g.Affinity {
		names = append(names, name)
	}
	sort.Strings(names)
	return &Family{Name: name, Archetype: arch, Base: g, affinityNames: names}
}

// Instantiate derives an instance genome from the family base: every scalar
// is jittered, affinities get per-platform noise, and the dataset factor
// multiplies the work and shifts the memory need (the paper's "dataset
// impact", up to ~3x).
func (f *Family) Instantiate(rng *sim.RNG, workMult, memMult float64) *Genome {
	b := f.Base
	g := Genome{
		BaseRate:    rng.Jitter(b.BaseRate, 0.08),
		Alpha:       clamp(b.Alpha*rng.Uniform(0.95, 1.05), 0.05, 1.0),
		Parallelism: b.Parallelism,
		Beta:        clamp(b.Beta*rng.Uniform(0.97, 1.03), 0.4, 1.2),
		MemNeedGB:   b.MemNeedGB * memMult * rng.Uniform(0.9, 1.1),
		MemCurve:    b.MemCurve,
		Work:        b.Work * workMult * rng.Uniform(0.9, 1.1),
		ServiceUS:   rng.Jitter(b.ServiceUS, 0.05),
		TailFactor:  b.TailFactor,
		QPSPerUnit:  b.QPSPerUnit,
		NoiseCV:     b.NoiseCV,
		Affinity:    make(map[string]float64, len(b.Affinity)),
	}
	for _, name := range f.affinityNames {
		g.Affinity[name] = rng.Jitter(b.Affinity[name], 0.06)
	}
	for r := 0; r < int(cluster.NumResources); r++ {
		g.Sens[r] = clamp01(b.Sens[r] * rng.Uniform(0.85, 1.15))
		g.Caused[r] = clamp01(b.Caused[r] * rng.Uniform(0.85, 1.15))
	}
	return &g
}

func clamp01(x float64) float64 { return clamp(x, 0, 1) }

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
