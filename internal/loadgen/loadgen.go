// Package loadgen produces the traffic patterns of the paper's evaluation:
// flat, fluctuating, and spiking load for the HotCRP scenario (Fig. 8), the
// diurnal pattern for the stateful-services scenario (Fig. 9), and
// inter-arrival schedules for workload submission.
package loadgen

import (
	"math"

	"quasar/internal/sim"
)

// Pattern maps virtual time (seconds) to offered load (QPS). Load must be a
// pure function of t: the same t always yields the same value, with no state
// advanced by the call. The runtime relies on it to read a service's load
// once per sim instant and hand that reading to every asker at the instant.
type Pattern interface {
	Load(t float64) float64
}

// Flat is constant load.
type Flat struct{ QPS float64 }

// Load implements Pattern.
func (f Flat) Load(float64) float64 { return f.QPS }

// Fluctuating is a sinusoid between Min and Max with the given period.
type Fluctuating struct {
	Min, Max float64
	Period   float64
	Phase    float64
}

// Load implements Pattern.
func (f Fluctuating) Load(t float64) float64 {
	mid := (f.Min + f.Max) / 2
	amp := (f.Max - f.Min) / 2
	return mid + amp*math.Sin(2*math.Pi*t/f.Period+f.Phase)
}

// Spike is base load with a sharp plateau between Start and Start+Duration,
// with linear ramps of RampSecs on each side.
type Spike struct {
	Base, Peak      float64
	Start, Duration float64
	RampSecs        float64
}

// Load implements Pattern.
func (s Spike) Load(t float64) float64 {
	ramp := s.RampSecs
	if ramp <= 0 {
		ramp = 1
	}
	switch {
	case t < s.Start || t > s.Start+s.Duration+2*ramp:
		return s.Base
	case t < s.Start+ramp:
		return s.Base + (s.Peak-s.Base)*(t-s.Start)/ramp
	case t < s.Start+ramp+s.Duration:
		return s.Peak
	default:
		return s.Peak - (s.Peak-s.Base)*(t-(s.Start+ramp+s.Duration))/ramp
	}
}

// Diurnal is a day-night cycle: load swings between Min (night) and Max
// (peak afternoon) over a 24-hour period.
type Diurnal struct {
	Min, Max float64
	// PeakHour is the hour of day (0-24) with maximum load.
	PeakHour float64
}

// Load implements Pattern.
func (d Diurnal) Load(t float64) float64 {
	const day = 24 * 3600
	hour := math.Mod(t, day) / 3600
	mid := (d.Min + d.Max) / 2
	amp := (d.Max - d.Min) / 2
	return mid + amp*math.Cos(2*math.Pi*(hour-d.PeakHour)/24)
}

// Noisy wraps a pattern with multiplicative log-normal noise. The noise is
// smooth value noise: an independent standard-normal is pinned at each bucket
// boundary and smoothstep-interpolated between them, so load drifts
// continuously instead of jumping at bucket edges — real traffic noise is
// autocorrelated — and repeated queries at the same instant agree.
type Noisy struct {
	P    Pattern
	CV   float64
	Seed int64
	// BucketSecs is the noise decorrelation interval: boundary normals are
	// independent, and the noise drifts smoothly in between. Aggregate QPS
	// noise evolves over minutes, not per query, so the default is 60s.
	BucketSecs float64
}

// Load implements Pattern.
func (n Noisy) Load(t float64) float64 {
	base := n.P.Load(t)
	if n.CV <= 0 {
		return base
	}
	b := n.BucketSecs
	if b <= 0 {
		b = 60
	}
	bucket := int64(t / b)
	frac := t/b - float64(bucket)
	u := frac * frac * (3 - 2*frac) // smoothstep
	seed := n.Seed*1_000_003 + bucket
	z := (1-u)*sim.HashNormal(seed) + u*sim.HashNormal(seed+1)
	sigma := math.Sqrt(math.Log(1 + n.CV*n.CV))
	return base * math.Exp(-sigma*sigma/2+sigma*z)
}

// Scaled multiplies a pattern by K.
type Scaled struct {
	P Pattern
	K float64
}

// Load implements Pattern.
func (s Scaled) Load(t float64) float64 { return s.K * s.P.Load(t) }

// PoissonArrivals builds n arrival times with exponential gaps of the given
// mean, starting at start.
func PoissonArrivals(rng *sim.RNG, start, meanGap float64, n int) []float64 {
	out := make([]float64, n)
	t := start
	for i := range out {
		t += rng.Exponential(meanGap)
		out[i] = t
	}
	return out
}
