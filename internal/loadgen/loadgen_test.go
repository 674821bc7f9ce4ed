package loadgen

import (
	"math"
	"testing"

	"quasar/internal/sim"
)

func TestFlat(t *testing.T) {
	p := Flat{QPS: 100}
	if p.Load(0) != 100 || p.Load(1e6) != 100 {
		t.Fatal("flat load not flat")
	}
}

func TestFluctuatingBounds(t *testing.T) {
	p := Fluctuating{Min: 100, Max: 500, Period: 3600}
	lo, hi := math.Inf(1), math.Inf(-1)
	for ts := 0.0; ts < 7200; ts += 10 {
		v := p.Load(ts)
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	if lo < 99.9 || hi > 500.1 {
		t.Fatalf("fluctuating outside bounds: [%v, %v]", lo, hi)
	}
	if hi-lo < 350 {
		t.Fatalf("fluctuating amplitude too small: %v", hi-lo)
	}
}

func TestSpikeShape(t *testing.T) {
	s := Spike{Base: 100, Peak: 400, Start: 1000, Duration: 600, RampSecs: 60}
	if s.Load(0) != 100 {
		t.Fatal("pre-spike load wrong")
	}
	if s.Load(1030) <= 100 || s.Load(1030) >= 400 {
		t.Fatalf("ramp value %v", s.Load(1030))
	}
	if s.Load(1400) != 400 {
		t.Fatalf("plateau %v", s.Load(1400))
	}
	if s.Load(5000) != 100 {
		t.Fatal("post-spike load wrong")
	}
	// Zero ramp defaults sanely.
	z := Spike{Base: 1, Peak: 2, Start: 10, Duration: 5}
	if z.Load(12) != 2 {
		t.Fatalf("zero-ramp plateau %v", z.Load(12))
	}
}

func TestDiurnalPeak(t *testing.T) {
	d := Diurnal{Min: 500e3, Max: 2.4e6, PeakHour: 15}
	peak := d.Load(15 * 3600)
	trough := d.Load(3 * 3600)
	if math.Abs(peak-2.4e6) > 1 {
		t.Fatalf("peak %v", peak)
	}
	if math.Abs(trough-500e3) > 1 {
		t.Fatalf("trough %v", trough)
	}
	// Second day repeats.
	if math.Abs(d.Load(15*3600)-d.Load((24+15)*3600)) > 1e-6 {
		t.Fatal("diurnal not periodic")
	}
}

func TestNoisyDeterministicPerBucket(t *testing.T) {
	n := Noisy{P: Flat{QPS: 100}, CV: 0.1, Seed: 7, BucketSecs: 5}
	if n.Load(12.3) != n.Load(12.3) {
		t.Fatal("same instant gave different loads")
	}
	if n.Load(12.3) == n.Load(30) {
		t.Fatal("different buckets gave identical loads (suspicious)")
	}
	// The noise is smooth value noise: it moves within a bucket but never
	// jumps at a boundary.
	if n.Load(12.3) == n.Load(13.9) {
		t.Fatal("noise frozen within bucket")
	}
	const eps = 1e-9
	if math.Abs(n.Load(10-eps)-n.Load(10+eps)) > 0.01 {
		t.Fatalf("noise jumps at bucket boundary: %v vs %v", n.Load(10-eps), n.Load(10+eps))
	}
	// Zero CV passes through.
	clean := Noisy{P: Flat{QPS: 100}}
	if clean.Load(1) != 100 {
		t.Fatal("zero-CV noisy altered load")
	}
}

func TestNoisyUnbiased(t *testing.T) {
	n := Noisy{P: Flat{QPS: 100}, CV: 0.1, Seed: 3, BucketSecs: 1}
	sum := 0.0
	const samples = 20000
	for i := 0; i < samples; i++ {
		sum += n.Load(float64(i))
	}
	if mean := sum / samples; math.Abs(mean-100) > 1 {
		t.Fatalf("noisy mean %v, want ~100", mean)
	}
}

func TestScaled(t *testing.T) {
	s := Scaled{P: Flat{QPS: 100}, K: 2.5}
	if s.Load(0) != 250 {
		t.Fatal("scaled wrong")
	}
}

func TestPoissonArrivals(t *testing.T) {
	rng := sim.NewRNG(1)
	a := PoissonArrivals(rng, 0, 10, 1000)
	if len(a) != 1000 {
		t.Fatal("wrong count")
	}
	for i := 1; i < len(a); i++ {
		if a[i] <= a[i-1] {
			t.Fatal("arrivals not increasing")
		}
	}
	mean := a[len(a)-1] / 1000
	if math.Abs(mean-10) > 1.5 {
		t.Fatalf("mean gap %v, want ~10", mean)
	}
}
