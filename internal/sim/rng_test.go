package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed produced different sequences")
		}
	}
}

func TestStreamsIndependent(t *testing.T) {
	g := NewRNG(7)
	s1 := g.Stream("alpha")
	s2 := g.Stream("beta")
	same := 0
	for i := 0; i < 100; i++ {
		if s1.Float64() == s2.Float64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams look correlated: %d identical draws", same)
	}
}

func TestUniformRange(t *testing.T) {
	g := NewRNG(1)
	f := func(seed int64) bool {
		v := g.Uniform(10, 20)
		return v >= 10 && v < 20
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNormalMoments(t *testing.T) {
	g := NewRNG(3)
	const n = 200000
	sum, sum2 := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := g.Normal(5, 2)
		sum += v
		sum2 += v * v
	}
	mean := sum / n
	variance := sum2/n - mean*mean
	if math.Abs(mean-5) > 0.05 {
		t.Fatalf("mean = %v, want ~5", mean)
	}
	if math.Abs(variance-4) > 0.1 {
		t.Fatalf("variance = %v, want ~4", variance)
	}
}

func TestLogNormalPositive(t *testing.T) {
	g := NewRNG(4)
	for i := 0; i < 1000; i++ {
		if g.LogNormal(0, 1) <= 0 {
			t.Fatal("lognormal produced non-positive value")
		}
	}
}

func TestExponentialMean(t *testing.T) {
	g := NewRNG(5)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += g.Exponential(3)
	}
	if mean := sum / n; math.Abs(mean-3) > 0.05 {
		t.Fatalf("mean = %v, want ~3", mean)
	}
}

func TestParetoBounds(t *testing.T) {
	g := NewRNG(6)
	for i := 0; i < 10000; i++ {
		v := g.Pareto(1.5, 2, 100)
		if v < 2 || v > 100 {
			t.Fatalf("pareto draw %v outside [2,100]", v)
		}
	}
}

func TestJitterUnbiased(t *testing.T) {
	g := NewRNG(8)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += g.Jitter(10, 0.05)
	}
	if mean := sum / n; math.Abs(mean-10) > 0.05 {
		t.Fatalf("jitter mean = %v, want ~10 (unbiased)", mean)
	}
	if g.Jitter(10, 0) != 10 {
		t.Fatal("zero-cv jitter changed the value")
	}
}

func TestBoolProbability(t *testing.T) {
	g := NewRNG(9)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if g.Bool(0.3) {
			hits++
		}
	}
	p := float64(hits) / n
	if math.Abs(p-0.3) > 0.01 {
		t.Fatalf("Bool(0.3) frequency = %v", p)
	}
}
