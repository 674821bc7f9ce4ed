package metrics

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// relDiff returns |a-b| / max(|a|,|b|), 0 when both are ~0.
func relDiff(a, b float64) float64 {
	m := math.Max(math.Abs(a), math.Abs(b))
	if m == 0 {
		return 0
	}
	return math.Abs(a-b) / m
}

// sampleSets generates deterministic sample populations with very different
// shapes: uniform, log-normal (latency-like), heavy-tailed, and tiny.
func sampleSets(rng *rand.Rand) map[string][]float64 {
	uniform := make([]float64, 5000)
	for i := range uniform {
		uniform[i] = 1 + 999*rng.Float64()
	}
	logNormal := make([]float64, 5000)
	for i := range logNormal {
		logNormal[i] = math.Exp(5 + 1.5*rng.NormFloat64())
	}
	heavy := make([]float64, 5000)
	for i := range heavy {
		heavy[i] = 100 / math.Pow(rng.Float64(), 1.2) // Pareto-ish tail
	}
	return map[string][]float64{
		"uniform":   uniform,
		"lognormal": logNormal,
		"heavy":     heavy,
		"tiny":      {3, 1, 4, 1, 5, 9, 2, 6},
		"constant":  {42, 42, 42, 42},
	}
}

// nearestRank returns the p-th percentile (0..100) of ascending samples by
// nearest rank: the exact answer the histogram approximates.
func nearestRank(sorted []float64, p float64) float64 {
	rank := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	return sorted[min(max(rank, 0), len(sorted)-1)]
}

// TestHistogramQuantilesBoundedError is the property test of the streaming
// histogram: for every population shape and every probed percentile, the
// histogram's answer must be within the configured relative-error bound of
// the exact sorted-sample nearest-rank percentile.
func TestHistogramQuantilesBoundedError(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	percentiles := []float64{0, 1, 5, 10, 25, 50, 75, 90, 95, 99, 99.9, 100}
	for _, relErr := range []float64{0.005, 0.01, 0.05} {
		for name, vals := range sampleSets(rng) {
			h := NewHistogram(relErr)
			for _, v := range vals {
				h.Add(v)
			}
			if h.N() != len(vals) {
				t.Fatalf("%s/alpha=%v: histogram holds %d samples, want %d", name, relErr, h.N(), len(vals))
			}
			exact := append([]float64(nil), vals...)
			sort.Float64s(exact)
			for _, p := range percentiles {
				got, want := h.Percentile(p), nearestRank(exact, p)
				// Nearest-rank picks a sample; the histogram answers within
				// alpha of *some* sample in the same bucket, so allow the
				// bound plus a hair of float slack.
				if d := relDiff(got, want); d > relErr+1e-9 {
					t.Errorf("%s/alpha=%v: p%v = %v, exact %v (rel diff %.4f > %.4f)",
						name, relErr, p, got, want, d, relErr)
				}
			}
			sum := 0.0
			for _, v := range exact {
				sum += v
			}
			if g, w := h.Mean(), sum/float64(len(exact)); relDiff(g, w) > relErr {
				t.Errorf("%s/alpha=%v: mean %v, exact %v (bucket-representative mean exceeds error bound)", name, relErr, g, w)
			}
			if g, w := h.Max(), exact[len(exact)-1]; g != w {
				t.Errorf("%s/alpha=%v: max %v, exact %v (max is tracked exactly)", name, relErr, g, w)
			}
		}
	}
}

// TestHistogramBoundedMemory checks the point of the structure: millions of
// distinct samples across nine decades of dynamic range occupy only
// O(log(range)/alpha) buckets.
func TestHistogramBoundedMemory(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	h := NewHistogram(0.01)
	for i := 0; i < 200_000; i++ {
		h.Add(math.Exp(rng.Float64()*20 - 5)) // ~e^-5 .. e^15
	}
	// ln(e^20)/ln(gamma) with gamma ~ 1.0202 is ~1000 buckets.
	if h.Buckets() > 1100 {
		t.Fatalf("histogram grew to %d buckets; log-linear bucketing should cap near 1000", h.Buckets())
	}
	if h.N() != 200_000 {
		t.Fatalf("count %d, want 200000", h.N())
	}
}

// TestHistogramZeroAndNegative pins the non-positive sample path: they count
// toward ranks but report as 0.
func TestHistogramZeroAndNegative(t *testing.T) {
	h := NewHistogram(0.01)
	h.Add(0)
	h.Add(-3)
	h.Add(10)
	h.Add(10)
	if got := h.Percentile(25); got != 0 {
		t.Fatalf("p25 over {-3,0,10,10} = %v, want 0 (non-positive bucket)", got)
	}
	if got := h.Percentile(99); relDiff(got, 10) > 0.01 {
		t.Fatalf("p99 = %v, want ~10", got)
	}
	if got := h.Min(); got != -3 {
		t.Fatalf("min %v, want -3", got)
	}
	// With only negative samples the non-positive bucket reports the
	// maximum, so percentiles stay monotone up to p100.
	neg := NewHistogram(0.01)
	neg.Add(-7)
	neg.Add(-3)
	if got := neg.Percentile(50); got != -3 {
		t.Fatalf("p50 over {-7,-3} = %v, want -3 (the maximum)", got)
	}
}

// serialize renders a histogram's full observable state.
func serialize(t *testing.T, h *Histogram) []byte {
	t.Helper()
	b, err := json.Marshal(h)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestHistogramJSONRoundTrip checks Unmarshal(Marshal(h)) reproduces the
// observable state, including quantile answers.
func TestHistogramJSONRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	h := NewHistogram(0.01)
	for i := 0; i < 1000; i++ {
		h.Add(math.Exp(3 * rng.NormFloat64()))
	}
	b := serialize(t, h)
	var back Histogram
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b, serialize(t, &back)) {
		t.Fatal("histogram JSON round trip changed state")
	}
	for _, p := range []float64{1, 50, 99} {
		if g, w := back.Percentile(p), h.Percentile(p); g != w {
			t.Fatalf("p%v after round trip = %v, want %v", p, g, w)
		}
	}
}
