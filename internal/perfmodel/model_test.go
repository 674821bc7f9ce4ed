package perfmodel

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"quasar/internal/cluster"
	"quasar/internal/sim"
)

func testGenome() *Genome {
	arch, err := ArchetypeByName("hadoop")
	if err != nil {
		panic(err)
	}
	fam := NewFamily("hadoop-test", arch, cluster.LocalPlatforms(), sim.NewRNG(1))
	return fam.Instantiate(sim.NewRNG(2), 1, 1)
}

func serviceGenome() *Genome {
	arch, err := ArchetypeByName("memcached")
	if err != nil {
		panic(err)
	}
	fam := NewFamily("mc-test", arch, cluster.LocalPlatforms(), sim.NewRNG(3))
	return fam.Instantiate(sim.NewRNG(4), 1, 1)
}

func TestInterferencePenaltyBounds(t *testing.T) {
	f := func(sRaw, pRaw [9]uint8) bool {
		var s, p cluster.ResVec
		for i := 0; i < 9; i++ {
			s[i] = float64(sRaw[i]%101) / 100
			p[i] = float64(pRaw[i]%151) / 100 // may exceed 1; must saturate
		}
		pen := InterferencePenalty(s, p)
		return pen > 0 && pen <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestInterferencePenaltyMonotone(t *testing.T) {
	g := testGenome()
	var lo, hi cluster.ResVec
	for r := range lo {
		lo[r], hi[r] = 0.2, 0.8
	}
	if InterferencePenalty(g.Sens, lo) < InterferencePenalty(g.Sens, hi) {
		t.Fatal("penalty not monotone in pressure")
	}
	if InterferencePenalty(g.Sens, cluster.ResVec{}) != 1 {
		t.Fatal("no pressure should mean no penalty")
	}
}

func TestInterferenceCanBeSevere(t *testing.T) {
	// A workload sensitive to many resources under full contention should
	// slow down by ~an order of magnitude (Fig. 2 shows up to 10x).
	var s, p cluster.ResVec
	for r := range s {
		s[r] = 0.5
		p[r] = 1.0
	}
	pen := InterferencePenalty(s, p)
	if pen > 0.15 {
		t.Fatalf("penalty %v too mild for full contention", pen)
	}
	if pen < 0.001 {
		t.Fatalf("penalty %v implausibly harsh", pen)
	}
}

func TestNodeRateMonotoneInCores(t *testing.T) {
	g := testGenome()
	p := &cluster.LocalPlatforms()[9]
	prev := 0.0
	for c := 1; c <= p.Cores; c++ {
		r := g.NodeRate(p, cluster.Alloc{Cores: c, MemoryGB: g.MemNeedGB}, cluster.ResVec{})
		if r <= prev {
			t.Fatalf("rate not increasing at %d cores: %v <= %v", c, r, prev)
		}
		prev = r
	}
}

func TestNodeRateDiminishingReturns(t *testing.T) {
	g := testGenome()
	p := &cluster.LocalPlatforms()[9]
	r4 := g.NodeRate(p, cluster.Alloc{Cores: 4, MemoryGB: 48}, cluster.ResVec{})
	r8 := g.NodeRate(p, cluster.Alloc{Cores: 8, MemoryGB: 48}, cluster.ResVec{})
	r16 := g.NodeRate(p, cluster.Alloc{Cores: 16, MemoryGB: 48}, cluster.ResVec{})
	if r8 >= 2*r4 || r16 >= 2*r8 {
		t.Fatalf("doubling cores should be sublinear: r4=%.2f r8=%.2f r16=%.2f", r4, r8, r16)
	}
	// Absolute per-core marginal gain shrinks too.
	if (r16-r8)/8 >= (r8-r4)/4 {
		t.Fatalf("per-core marginal gain should shrink: %.3f vs %.3f", (r16-r8)/8, (r8-r4)/4)
	}
}

func TestMemoryCliff(t *testing.T) {
	g := testGenome()
	p := &cluster.LocalPlatforms()[9]
	full := g.NodeRate(p, cluster.Alloc{Cores: 8, MemoryGB: g.MemNeedGB}, cluster.ResVec{})
	extra := g.NodeRate(p, cluster.Alloc{Cores: 8, MemoryGB: g.MemNeedGB * 2}, cluster.ResVec{})
	starved := g.NodeRate(p, cluster.Alloc{Cores: 8, MemoryGB: g.MemNeedGB / 4}, cluster.ResVec{})
	if extra != full {
		t.Fatalf("memory beyond the working set changed rate: %v vs %v", extra, full)
	}
	if starved >= full {
		t.Fatalf("memory starvation did not hurt: %v >= %v", starved, full)
	}
}

func TestHeterogeneitySpread(t *testing.T) {
	// Across whole nodes of platforms A-J, best/worst should span roughly
	// the 3-7x of Fig. 2 (allow 2-12x over random genomes).
	rng := sim.NewRNG(7)
	platforms := cluster.LocalPlatforms()
	arch, _ := ArchetypeByName("hadoop")
	var ratios []float64
	for trial := 0; trial < 20; trial++ {
		fam := NewFamily("f", arch, platforms, rng.Stream("fam"))
		g := fam.Instantiate(rng.Stream("inst"), 1, 1)
		lo, hi := math.Inf(1), 0.0
		for i := range platforms {
			p := &platforms[i]
			r := g.NodeRate(p, cluster.Alloc{Cores: p.Cores, MemoryGB: p.MemoryGB}, cluster.ResVec{})
			if r < lo {
				lo = r
			}
			if r > hi {
				hi = r
			}
		}
		ratio := hi / lo
		if ratio < 2 || ratio > 80 {
			t.Fatalf("trial %d: heterogeneity spread %.1fx outside sanity range [2,80]", trial, ratio)
		}
		ratios = append(ratios, ratio)
	}
	sort.Float64s(ratios)
	if med := ratios[len(ratios)/2]; med < 3 || med > 30 {
		t.Fatalf("median heterogeneity spread %.1fx outside [3,30]", med)
	}
}

func TestScaleOutEfficiency(t *testing.T) {
	g := testGenome()
	if g.ScaleOutEfficiency(1) != 1 {
		t.Fatal("eff(1) != 1")
	}
	g.Beta = 0.8
	if e := g.ScaleOutEfficiency(4); math.Abs(e-math.Pow(4, -0.2)) > 1e-12 {
		t.Fatalf("sublinear eff wrong: %v", e)
	}
	g.Beta = 1.1
	if g.ScaleOutEfficiency(4) <= 1 {
		t.Fatal("superlinear beta should give eff > 1")
	}
}

func TestJobRateAndCompletion(t *testing.T) {
	g := testGenome()
	g.Beta = 1.0
	p := &cluster.LocalPlatforms()[9]
	al := cluster.Alloc{Cores: 8, MemoryGB: g.MemNeedGB}
	one := []NodeAlloc{{Platform: p, Alloc: al}}
	two := []NodeAlloc{{Platform: p, Alloc: al}, {Platform: p, Alloc: al}}
	r1, r2 := g.JobRate(one), g.JobRate(two)
	if math.Abs(r2-2*r1) > 1e-9 {
		t.Fatalf("beta=1: two nodes should double rate: %v vs %v", r2, 2*r1)
	}
	ct := g.CompletionTime(one)
	if math.Abs(ct-g.Work/r1) > 1e-9 {
		t.Fatalf("completion time wrong: %v", ct)
	}
	if !math.IsInf(g.CompletionTime(nil), 1) {
		t.Fatal("empty allocation should never complete")
	}
}

func TestLatencyKnee(t *testing.T) {
	g := serviceGenome()
	p := &cluster.LocalPlatforms()[9]
	nodes := []NodeAlloc{{Platform: p, Alloc: cluster.Alloc{Cores: 8, MemoryGB: g.MemNeedGB}}}
	cap := g.CapacityQPS(nodes)
	if cap <= 0 {
		t.Fatal("non-positive capacity")
	}
	_, p99Low := g.Latency(0.1*cap, cap)
	_, p99Knee := g.Latency(0.8*cap, cap)
	_, p99Sat := g.Latency(1.5*cap, cap)
	if !(p99Low < p99Knee && p99Knee < p99Sat) {
		t.Fatalf("latency not increasing through knee: %v %v %v", p99Low, p99Knee, p99Sat)
	}
	if p99Knee < 2*p99Low {
		t.Fatalf("knee too soft: %.0f -> %.0f", p99Low, p99Knee)
	}
	if g.AchievedQPS(1.5*cap, cap) != cap {
		t.Fatal("saturated service should shed load to capacity")
	}
	if g.AchievedQPS(0.5*cap, cap) != 0.5*cap {
		t.Fatal("under capacity, achieved should equal offered")
	}
}

func TestLatencyMeanBelowP99(t *testing.T) {
	g := serviceGenome()
	for _, rho := range []float64{0, 0.2, 0.5, 0.8, 0.95} {
		mean, p99 := g.Latency(rho*1000, 1000)
		if p99 < mean {
			t.Fatalf("p99 %v < mean %v at rho %v", p99, mean, rho)
		}
	}
}

func TestCausedPressureScalesWithAllocation(t *testing.T) {
	g := testGenome()
	p := &cluster.LocalPlatforms()[9]
	small := g.CausedPressure(p, cluster.Alloc{Cores: 2, MemoryGB: 4})
	big := g.CausedPressure(p, cluster.Alloc{Cores: 24, MemoryGB: 48})
	if small[cluster.ResCPU] >= big[cluster.ResCPU] {
		t.Fatal("CPU pressure should grow with cores")
	}
	for r := 0; r < int(cluster.NumResources); r++ {
		if big[r] < 0 || big[r] > 1 {
			t.Fatalf("pressure out of range at %v: %v", cluster.Resource(r), big[r])
		}
	}
}

func TestBigPlatformsAbsorbPressure(t *testing.T) {
	g := testGenome()
	ps := cluster.LocalPlatforms()
	smallP, bigP := &ps[0], &ps[9]
	// Same core fraction on both platforms.
	onSmall := g.CausedPressure(smallP, cluster.Alloc{Cores: 1, MemoryGB: 2})
	onBig := g.CausedPressure(bigP, cluster.Alloc{Cores: 12, MemoryGB: 24})
	if onBig[cluster.ResLLC] >= onSmall[cluster.ResLLC] {
		t.Fatalf("LLC pressure on big cache %.3f should be below small cache %.3f",
			onBig[cluster.ResLLC], onSmall[cluster.ResLLC])
	}
}

func TestFamilyInstanceCoherence(t *testing.T) {
	// Instances of one family must be much closer to each other than to
	// another family drawn from the same archetype: this is the structure
	// collaborative filtering exploits.
	rng := sim.NewRNG(11)
	platforms := cluster.LocalPlatforms()
	arch, _ := ArchetypeByName("hadoop")
	famA := NewFamily("a", arch, platforms, rng.Stream("a"))
	famB := NewFamily("b", arch, platforms, rng.Stream("b"))
	a1 := famA.Instantiate(rng.Stream("a1"), 1, 1)
	a2 := famA.Instantiate(rng.Stream("a2"), 1, 1)
	b1 := famB.Instantiate(rng.Stream("b1"), 1, 1)

	dist := func(x, y *Genome) float64 {
		d := 0.0
		for _, p := range platforms {
			d += math.Abs(math.Log(x.Affinity(p.Name) / y.Affinity(p.Name)))
		}
		d += math.Abs(x.Alpha-y.Alpha) * 5
		return d
	}
	within, across := dist(a1, a2), dist(a1, b1)
	if within >= across {
		t.Fatalf("within-family distance %.3f >= across-family %.3f", within, across)
	}
}

func TestArchetypesComplete(t *testing.T) {
	archs := Archetypes()
	if len(archs) < 9 {
		t.Fatalf("only %d archetypes", len(archs))
	}
	classes := map[Class]int{}
	for _, a := range archs {
		classes[a.Class]++
		if a.Name == "" {
			t.Fatal("archetype with empty name")
		}
		if a.Class == LatencyCritical && a.QPSPerUnit <= 0 {
			t.Fatalf("latency archetype %s lacks QPSPerUnit", a.Name)
		}
		if a.Class != LatencyCritical && a.WorkHi <= 0 {
			t.Fatalf("batch archetype %s lacks Work range", a.Name)
		}
	}
	for _, c := range []Class{Analytics, LatencyCritical, SingleNode} {
		if classes[c] == 0 {
			t.Fatalf("no archetype for class %v", c)
		}
	}
	if _, err := ArchetypeByName("nope"); err == nil {
		t.Fatal("unknown archetype accepted")
	}
}

func TestDatasetImpact(t *testing.T) {
	rng := sim.NewRNG(13)
	arch, _ := ArchetypeByName("hadoop")
	fam := NewFamily("f", arch, cluster.LocalPlatforms(), rng.Stream("fam"))
	small := fam.Instantiate(rng.Stream("i1"), 1, 1)
	big := fam.Instantiate(rng.Stream("i2"), 3, 1.5)
	if big.Work < 2*small.Work {
		t.Fatalf("3x dataset should give ~3x work: %v vs %v", big.Work, small.Work)
	}
	if big.MemNeedGB <= small.MemNeedGB {
		t.Fatal("bigger dataset should need more memory")
	}
}

func TestClassString(t *testing.T) {
	if Analytics.String() != "analytics" || LatencyCritical.String() != "latency-critical" ||
		SingleNode.String() != "single-node" {
		t.Fatal("class names wrong")
	}
	if Class(99).String() == "" {
		t.Fatal("unknown class should still format")
	}
}
