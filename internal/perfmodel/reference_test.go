package perfmodel

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"

	"quasar/internal/cluster"
	"quasar/internal/sim"
)

// refFamily is the map-keyed family NewFamily used to build: every affinity
// in a map by platform name, with the sorted key list fixing the order in
// which instances draw their jitter. It is the reference the dense layout is
// held to, bit for bit.
type refFamily struct {
	base  Genome // every field but the affinity
	aff   map[string]float64
	names []string
}

// refNewFamily is NewFamily with affinities drawn into a map.
func refNewFamily(arch Archetype, platforms []cluster.Platform, rng *sim.RNG) *refFamily {
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
	}
	aff := make(map[string]float64, len(platforms))
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
		aff[p.Name] = rng.LogNormal(0, arch.AffinitySigma) * fit
	}
	for r := 0; r < int(cluster.NumResources); r++ {
		g.Sens[r] = clamp01(arch.Sens[r] * rng.Uniform(0.6, 1.4))
		g.Caused[r] = clamp01(arch.Caused[r] * rng.Uniform(0.6, 1.4))
	}
	names := make([]string, 0, len(aff))
	for name := range aff {
		names = append(names, name)
	}
	sort.Strings(names)
	return &refFamily{base: g, aff: aff, names: names}
}

// instantiate is Instantiate with affinities jittered into a map.
func (f *refFamily) instantiate(rng *sim.RNG, workMult, memMult float64) (Genome, map[string]float64) {
	b := f.base
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
	}
	aff := make(map[string]float64, len(f.aff))
	for _, name := range f.names {
		aff[name] = rng.Jitter(f.aff[name], 0.06)
	}
	for r := 0; r < int(cluster.NumResources); r++ {
		g.Sens[r] = clamp01(b.Sens[r] * rng.Uniform(0.85, 1.15))
		g.Caused[r] = clamp01(b.Caused[r] * rng.Uniform(0.85, 1.15))
	}
	return g, aff
}

// sameGenome fails t unless got equals the reference genome want with
// affinity map aff: every scalar field, and every affinity bit for bit
// through Affinity. A name the genome was not drawn for must read 1.
func sameGenome(t *testing.T, what string, got *Genome, want Genome, aff map[string]float64) {
	t.Helper()
	scalars := *got
	scalars.affinityNames, scalars.affinity = nil, nil
	if !reflect.DeepEqual(scalars, want) {
		t.Fatalf("%s: scalar fields differ:\n got %+v\nwant %+v", what, scalars, want)
	}
	if len(got.affinityNames) != len(aff) {
		t.Fatalf("%s: %d affinity names, reference has %d", what, len(got.affinityNames), len(aff))
	}
	for name, a := range aff {
		if g := got.Affinity(name); math.Float64bits(g) != math.Float64bits(a) {
			t.Fatalf("%s: Affinity(%q) = %v, reference %v", what, name, g, a)
		}
	}
	if a := got.Affinity("no-such-platform"); a != 1 {
		t.Fatalf("%s: Affinity of an unknown platform = %v, want 1", what, a)
	}
}

// TestDenseAffinityMatchesMapReference holds NewFamily and Instantiate to the
// map-keyed reference above: same draws in the same order, so every genome
// field and every affinity is bit-identical. The platform lists are the two
// real ones and the local list with a name repeated under different cache
// sizes, where the last draw must win, as a map assignment made it.
func TestDenseAffinityMatchesMapReference(t *testing.T) {
	local := cluster.LocalPlatforms()
	repeated := append([]cluster.Platform(nil), local...)
	dup := local[0]
	dup.CacheMB = 64
	repeated = append(repeated, dup, local[3])
	for _, set := range []struct {
		name      string
		platforms []cluster.Platform
	}{
		{"local", local},
		{"ec2", cluster.EC2Platforms()},
		{"repeated", repeated},
	} {
		for _, arch := range Archetypes() {
			for seed := int64(1); seed <= 3; seed++ {
				what := fmt.Sprintf("%s/%s/seed%d", set.name, arch.Name, seed)
				fam := NewFamily(arch.Name, arch, set.platforms, sim.NewRNG(seed))
				ref := refNewFamily(arch, set.platforms, sim.NewRNG(seed))
				sameGenome(t, what+"/base", &fam.Base, ref.base, ref.aff)
				for i := int64(0); i < 4; i++ {
					mult := 0.5 + float64(i)*0.5
					g := fam.Instantiate(sim.NewRNG(100*seed+i), mult, 2-mult/2)
					want, aff := ref.instantiate(sim.NewRNG(100*seed+i), mult, 2-mult/2)
					sameGenome(t, fmt.Sprintf("%s/instance%d", what, i), g, want, aff)
					if &g.affinityNames[0] != &fam.Base.affinityNames[0] {
						t.Fatalf("%s/instance%d: the instance copied its family's name list", what, i)
					}
				}
			}
		}
	}
}
