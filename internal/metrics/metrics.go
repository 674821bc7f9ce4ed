// Package metrics provides the measurement plumbing of the evaluation:
// streaming percentile tracking, utilization time series and heatmaps, and
// target-tracking statistics used by every figure of the paper.
package metrics

import (
	"fmt"
	"math"
	"sort"
)

// Series is an append-only time series of (time, value) points.
type Series struct {
	Name  string
	Times []float64
	Vals  []float64
}

// Add appends a point. Times must be nondecreasing.
func (s *Series) Add(t, v float64) {
	if n := len(s.Times); n > 0 && t < s.Times[n-1] {
		panic(fmt.Sprintf("metrics: series %q time went backwards: %v after %v",
			s.Name, t, s.Times[n-1]))
	}
	s.Times = append(s.Times, t)
	s.Vals = append(s.Vals, v)
}

// Len returns the number of points.
func (s *Series) Len() int { return len(s.Vals) }

// Mean returns the average value, or 0 when empty.
func (s *Series) Mean() float64 {
	if len(s.Vals) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range s.Vals {
		sum += v
	}
	return sum / float64(len(s.Vals))
}

// Max returns the maximum value, or 0 when empty.
func (s *Series) Max() float64 {
	m := 0.0
	for i, v := range s.Vals {
		if i == 0 || v > m {
			m = v
		}
	}
	return m
}

// MeanBetween averages values with t in [t0, t1).
func (s *Series) MeanBetween(t0, t1 float64) float64 {
	sum, n := 0.0, 0
	for i, t := range s.Times {
		if t >= t0 && t < t1 {
			sum += s.Vals[i]
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Heatmap holds per-entity utilization over time: one row per server, one
// column per sampling instant (Figs. 7 and 11b-c).
type Heatmap struct {
	Rows  int
	Times []float64
	Cells [][]float64 // Cells[t][row]
}

// NewHeatmap returns a heatmap for rows entities.
func NewHeatmap(rows int) *Heatmap { return &Heatmap{Rows: rows} }

// Sample appends one column of per-entity values at time t.
func (h *Heatmap) Sample(t float64, vals []float64) {
	if len(vals) != h.Rows {
		panic(fmt.Sprintf("metrics: heatmap sample with %d rows, want %d", len(vals), h.Rows))
	}
	h.Times = append(h.Times, t)
	col := make([]float64, h.Rows) // retained history: the copy frees the caller's buffer for reuse
	copy(col, vals)
	h.Cells = append(h.Cells, col)
}

// MeanOverall averages every cell.
func (h *Heatmap) MeanOverall() float64 {
	sum, n := 0.0, 0
	for _, col := range h.Cells {
		for _, v := range col {
			sum += v
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// MeanAt averages the column nearest to time t.
func (h *Heatmap) MeanAt(t float64) float64 {
	if len(h.Times) == 0 {
		return 0
	}
	best := 0
	for i, ht := range h.Times {
		if math.Abs(ht-t) < math.Abs(h.Times[best]-t) {
			best = i
		}
	}
	sum := 0.0
	for _, v := range h.Cells[best] {
		sum += v
	}
	return sum / float64(h.Rows)
}

// TargetTracker accumulates per-workload performance normalized to target
// (Fig. 11a: 1.0 = met the target exactly; >1 = beat it).
type TargetTracker struct {
	byID  map[string]float64
	order []string
}

// NewTargetTracker returns an empty tracker.
func NewTargetTracker() *TargetTracker {
	return &TargetTracker{byID: make(map[string]float64)}
}

// Record stores the final normalized performance of a workload.
func (t *TargetTracker) Record(id string, normalized float64) {
	if _, ok := t.byID[id]; !ok {
		t.order = append(t.order, id)
	}
	t.byID[id] = normalized
}

// N returns the number of recorded workloads.
func (t *TargetTracker) N() int { return len(t.order) }

// Sorted returns normalized performance worst-to-best (the x-axis of
// Fig. 11a).
func (t *TargetTracker) Sorted() []float64 {
	out := make([]float64, 0, len(t.order))
	for _, id := range t.order {
		out = append(out, t.byID[id])
	}
	sort.Float64s(out)
	return out
}

// Mean returns the average normalized performance, with values capped at
// cap (the paper reports mean of min(perf/target, 1) when discussing "% of
// target achieved"; pass cap<=0 to disable capping).
func (t *TargetTracker) Mean(cap float64) float64 {
	if len(t.order) == 0 {
		return 0
	}
	sum := 0.0
	for _, id := range t.order {
		v := t.byID[id]
		if cap > 0 && v > cap {
			v = cap
		}
		sum += v
	}
	return sum / float64(len(t.order))
}
