package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSeriesBasics(t *testing.T) {
	var s Series
	s.Add(0, 10)
	s.Add(1, 20)
	s.Add(2, 30)
	if s.Len() != 3 || s.Mean() != 20 || s.Max() != 30 {
		t.Fatalf("series stats wrong: len=%d mean=%v max=%v", s.Len(), s.Mean(), s.Max())
	}
	if got := s.MeanBetween(1, 3); got != 25 {
		t.Fatalf("MeanBetween = %v, want 25", got)
	}
	if got := s.MeanBetween(5, 6); got != 0 {
		t.Fatalf("empty window mean = %v", got)
	}
}

func TestSeriesRejectsTimeTravel(t *testing.T) {
	var s Series
	s.Add(5, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("backwards time accepted")
		}
	}()
	s.Add(4, 1)
}

func TestDistributionPercentiles(t *testing.T) {
	var d Distribution
	for i := 1; i <= 100; i++ {
		d.Add(float64(i))
	}
	if got := d.Percentile(50); got != 50 {
		t.Fatalf("p50 = %v", got)
	}
	if got := d.Percentile(99); got != 99 {
		t.Fatalf("p99 = %v", got)
	}
	if got := d.Percentile(0); got != 1 {
		t.Fatalf("p0 = %v", got)
	}
	if got := d.Percentile(100); got != 100 {
		t.Fatalf("p100 = %v", got)
	}
	if got := d.Mean(); got != 50.5 {
		t.Fatalf("mean = %v", got)
	}
	if got := d.Max(); got != 100 {
		t.Fatalf("max = %v", got)
	}
}

func TestDistributionEmpty(t *testing.T) {
	var d Distribution
	if !math.IsNaN(d.Percentile(50)) || !math.IsNaN(d.Mean()) || !math.IsNaN(d.Max()) {
		t.Fatal("empty distribution should return NaN")
	}
	if d.FractionBelow(10) != 0 {
		t.Fatal("empty FractionBelow != 0")
	}
}

func TestDistributionInterleavedAddQuery(t *testing.T) {
	var d Distribution
	d.Add(10)
	_ = d.Percentile(50)
	d.Add(1) // must re-sort after this
	if got := d.Percentile(0); got != 1 {
		t.Fatalf("p0 after interleaved add = %v", got)
	}
}

func TestFractionBelow(t *testing.T) {
	var d Distribution
	for i := 1; i <= 10; i++ {
		d.Add(float64(i))
	}
	if got := d.FractionBelow(5); got != 0.5 {
		t.Fatalf("FractionBelow(5) = %v", got)
	}
	if got := d.FractionBelow(10); got != 1 {
		t.Fatalf("FractionBelow(10) = %v", got)
	}
	if got := d.FractionBelow(0.5); got != 0 {
		t.Fatalf("FractionBelow(0.5) = %v", got)
	}
}

func TestCDF(t *testing.T) {
	var d Distribution
	for i := 0; i < 100; i++ {
		d.Add(float64(i))
	}
	vals, fracs := d.CDF(11)
	if len(vals) != 11 || fracs[0] != 0 || fracs[10] != 1 {
		t.Fatalf("CDF shape wrong: %v %v", vals, fracs)
	}
	for i := 1; i < len(vals); i++ {
		if vals[i] < vals[i-1] {
			t.Fatal("CDF values not monotone")
		}
	}
}

// Property: percentile is monotone in p and bounded by min/max.
func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(raw []float64) bool {
		var d Distribution
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				d.Add(v)
			}
		}
		if d.N() == 0 {
			return true
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 10 {
			v := d.Percentile(p)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHeatmap(t *testing.T) {
	h := NewHeatmap(3)
	h.Sample(0, []float64{0.1, 0.2, 0.3})
	h.Sample(10, []float64{0.3, 0.4, 0.5})
	if got := h.MeanOverall(); math.Abs(got-0.3) > 1e-12 {
		t.Fatalf("overall mean %v", got)
	}
	if got := h.MeanAt(9); math.Abs(got-0.4) > 1e-12 {
		t.Fatalf("MeanAt(9) = %v, want column at t=10", got)
	}
}

func TestHeatmapPanicsOnBadRow(t *testing.T) {
	h := NewHeatmap(2)
	defer func() {
		if recover() == nil {
			t.Fatal("wrong-size sample accepted")
		}
	}()
	h.Sample(0, []float64{1})
}

func TestTargetTracker(t *testing.T) {
	tr := NewTargetTracker()
	tr.Record("a", 0.5)
	tr.Record("b", 1.2)
	tr.Record("c", 0.9)
	tr.Record("a", 0.6) // overwrite keeps one entry
	if tr.N() != 3 {
		t.Fatalf("N = %d", tr.N())
	}
	s := tr.Sorted()
	if s[0] != 0.6 || s[2] != 1.2 {
		t.Fatalf("sorted %v", s)
	}
	if got := tr.Mean(1.0); math.Abs(got-(0.6+1.0+0.9)/3) > 1e-12 {
		t.Fatalf("capped mean %v", got)
	}
	if got := tr.Mean(0); math.Abs(got-(0.6+1.2+0.9)/3) > 1e-12 {
		t.Fatalf("uncapped mean %v", got)
	}
}
