package metrics

import (
	"fmt"
	"math"
)

// Histogram is a bounded-memory log-linear streaming histogram in the
// DDSketch family: positive values land in geometric buckets whose
// boundaries grow by a factor gamma = (1+alpha)/(1-alpha), so any quantile
// is answered with relative error at most alpha using O(buckets) memory —
// for alpha = 1% roughly one bucket per 2% of dynamic range, a few hundred
// buckets for latencies spanning microseconds to hours. This replaces
// unbounded per-sample retention where only quantiles are needed (p99
// tracking, SLO budget math).
//
// Determinism contract. Buckets are kept as parallel sorted slices, never a
// map, so every walk (quantiles, serialization) runs in index order.
type Histogram struct {
	alpha   float64 // quantile relative-error bound
	gamma   float64 // bucket growth factor (1+alpha)/(1-alpha)
	lnGamma float64

	idx []int32  // sorted bucket indices: bucket i covers (gamma^(i-1), gamma^i]
	cnt []uint64 // cnt[k] samples in bucket idx[k]

	zero  uint64 // samples <= 0 (no log bucket; reported as 0)
	count uint64
	min   float64
	max   float64
}

// DefaultHistogramError is the relative-error bound used when none is given.
const DefaultHistogramError = 0.01

// NewHistogram returns an empty histogram with the given quantile
// relative-error bound (0 < relErr < 1); relErr <= 0 selects
// DefaultHistogramError.
func NewHistogram(relErr float64) *Histogram {
	if relErr <= 0 {
		relErr = DefaultHistogramError
	}
	if relErr >= 1 {
		panic(fmt.Sprintf("metrics: histogram relative error %v out of (0,1)", relErr))
	}
	h := &Histogram{alpha: relErr}
	h.derive()
	return h
}

// derive fills the cached gamma terms from alpha.
func (h *Histogram) derive() {
	h.gamma = (1 + h.alpha) / (1 - h.alpha)
	h.lnGamma = math.Log(h.gamma)
}

// bucketOf maps a positive value to its bucket index: the smallest i with
// gamma^i >= v.
func (h *Histogram) bucketOf(v float64) int32 {
	return int32(math.Ceil(math.Log(v) / h.lnGamma))
}

// valueOf returns the representative value of a bucket: the point of the
// interval (gamma^(i-1), gamma^i] whose worst-case relative error is
// minimized, 2*gamma^i/(gamma+1).
func (h *Histogram) valueOf(i int32) float64 {
	return 2 * math.Pow(h.gamma, float64(i)) / (h.gamma + 1)
}

// Add records one sample.
func (h *Histogram) Add(v float64) { h.AddN(v, 1) }

// AddN records the sample v with weight n (n identical samples).
func (h *Histogram) AddN(v float64, n int) {
	if n <= 0 {
		return
	}
	if h.lnGamma == 0 { //lint:allow(floatcmp) zero value: adopt the default error bound
		h.alpha = DefaultHistogramError
		h.derive()
	}
	w := uint64(n)
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count += w
	if v <= 0 {
		h.zero += w
		return
	}
	i := h.bucketOf(v)
	// Manual binary search: sort.Search's closure would allocate on every
	// observation.
	k, hi := 0, len(h.idx)
	for k < hi {
		mid := int(uint(k+hi) >> 1)
		if h.idx[mid] < i {
			k = mid + 1
		} else {
			hi = mid
		}
	}
	if k < len(h.idx) && h.idx[k] == i {
		h.cnt[k] += w
		return
	}
	h.idx = append(h.idx, 0)
	h.cnt = append(h.cnt, 0)
	copy(h.idx[k+1:], h.idx[k:])
	copy(h.cnt[k+1:], h.cnt[k:])
	h.idx[k], h.cnt[k] = i, w
}

// N returns the sample count.
func (h *Histogram) N() int { return int(h.count) }

// Buckets returns the number of occupied log buckets (memory is O(Buckets)).
func (h *Histogram) Buckets() int { return len(h.idx) }

// Mean returns the sample mean computed from bucket representatives, within
// RelativeError of the exact mean for positive samples (non-positive samples
// contribute 0). NaN when empty. It is derived purely from the integer
// bucket state in index order, so it is the same for any order of the same
// samples — a running float sum would not be.
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return math.NaN()
	}
	sum := 0.0
	for k := range h.idx {
		sum += float64(h.cnt[k]) * h.valueOf(h.idx[k])
	}
	return sum / float64(h.count)
}

// Min returns the exact smallest sample, or NaN when empty.
func (h *Histogram) Min() float64 {
	if h.count == 0 {
		return math.NaN()
	}
	return h.min
}

// Max returns the exact largest sample, or NaN when empty.
func (h *Histogram) Max() float64 {
	if h.count == 0 {
		return math.NaN()
	}
	return h.max
}

// Percentile returns the p-th percentile (0..100) by nearest rank over the
// bucket counts, or NaN when empty. The result is within RelativeError of
// the exact nearest-rank sample percentile. The extremes are exact: p<=0
// returns Min, p>=100 returns Max.
func (h *Histogram) Percentile(p float64) float64 {
	if h.count == 0 {
		return math.NaN()
	}
	if p <= 0 {
		return h.min
	}
	if p >= 100 {
		return h.max
	}
	rank := uint64(math.Ceil(p / 100 * float64(h.count)))
	if rank < 1 {
		rank = 1
	}
	if rank <= h.zero {
		// Reported as 0, but like every quantile never above the observed
		// maximum: with only negative samples, 0 would exceed p100.
		return math.Min(0, h.max)
	}
	seen := h.zero
	for k := range h.idx {
		seen += h.cnt[k]
		if seen >= rank {
			v := h.valueOf(h.idx[k])
			// The top bucket's representative can overshoot the true maximum;
			// quantiles never exceed the observed extremes.
			if v > h.max {
				v = h.max
			}
			if v < h.min {
				v = h.min
			}
			return v
		}
	}
	return h.max
}
