package trace

import (
	"sort"
	"testing"
)

func smallConfig() Config {
	c := DefaultConfig()
	c.Servers = 200
	c.Workloads = 800
	c.Days = 14
	return c
}

func TestTraceShapeMatchesFig1(t *testing.T) {
	tr := Generate(smallConfig())
	// Fig. 1a: aggregate CPU usage consistently below 20%, reservations
	// near 80%.
	if used := tr.MeanCPUUsedPct(); used > 25 || used < 5 {
		t.Fatalf("mean CPU used %.1f%%, want <25%% (paper: <20%%)", used)
	}
	if resv := tr.MeanCPUResvPct(); resv < 60 || resv > 95 {
		t.Fatalf("mean CPU reserved %.1f%%, want ~80%%", resv)
	}
	// Fig. 1b: memory usage around 40-50%... definitely above CPU usage.
	if tr.MeanMemUsedPct() <= tr.MeanCPUUsedPct() {
		t.Fatalf("memory usage %.1f%% should exceed CPU usage %.1f%%",
			tr.MeanMemUsedPct(), tr.MeanCPUUsedPct())
	}
	// The gap between reservation and usage is the paper's headline.
	if tr.MeanCPUResvPct() < 2.5*tr.MeanCPUUsedPct() {
		t.Fatalf("reservation/usage gap too small: %.1f%% vs %.1f%%",
			tr.MeanCPUResvPct(), tr.MeanCPUUsedPct())
	}
}

func TestTraceSeriesLengths(t *testing.T) {
	cfg := smallConfig()
	tr := Generate(cfg)
	wantHours := cfg.Days * 24
	if len(tr.Hours) != wantHours || len(tr.CPUUsedPct) != wantHours ||
		len(tr.MemResvPct) != wantHours {
		t.Fatalf("series length %d, want %d", len(tr.Hours), wantHours)
	}
	if len(tr.WeeklyServerCPU) != 2 {
		t.Fatalf("%d weeks, want 2 for 14 days", len(tr.WeeklyServerCPU))
	}
	for _, week := range tr.WeeklyServerCPU {
		if len(week) != cfg.Servers {
			t.Fatalf("week has %d servers", len(week))
		}
	}
	if len(tr.ReservedToUsed) != cfg.Workloads {
		t.Fatalf("%d ratio entries", len(tr.ReservedToUsed))
	}
}

func TestServerCDFMostBelow50(t *testing.T) {
	tr := Generate(smallConfig())
	// Fig. 1c: the majority of servers do not exceed 50% utilization in
	// any week.
	for wi, week := range tr.WeeklyServerCPU {
		below := 0
		for _, u := range week {
			if u < 50 {
				below++
			}
		}
		if frac := float64(below) / float64(len(week)); frac < 0.6 {
			t.Fatalf("week %d: only %.0f%% of servers below 50%% util", wi, frac*100)
		}
	}
}

func TestReservedToUsedDistribution(t *testing.T) {
	tr := Generate(smallConfig())
	rs := append([]float64(nil), tr.ReservedToUsed...)
	sort.Float64s(rs)
	over, under := 0, 0
	for _, r := range rs {
		if r > 1.2 {
			over++
		}
		if r < 0.95 {
			under++
		}
	}
	n := float64(len(rs))
	if fo := float64(over) / n; fo < 0.6 || fo > 0.8 {
		t.Fatalf("over-reserved fraction %.2f, want ~0.7", fo)
	}
	if fu := float64(under) / n; fu < 0.12 || fu > 0.28 {
		t.Fatalf("under-reserved fraction %.2f, want ~0.2", fu)
	}
	if rs[len(rs)-1] > 10.01 {
		t.Fatalf("max ratio %.1f exceeds the 10x bound", rs[len(rs)-1])
	}
	if rs[0] < 0.19 {
		t.Fatalf("min ratio %.2f below the 0.2 bound", rs[0])
	}
}

func TestTraceDeterministic(t *testing.T) {
	a := Generate(smallConfig())
	b := Generate(smallConfig())
	for i := range a.CPUUsedPct {
		if a.CPUUsedPct[i] != b.CPUUsedPct[i] {
			t.Fatal("trace not deterministic")
		}
	}
}

// TestDiurnalVariation: aggregate usage must swing within a day. Each
// workload's phase is drawn uniformly, so the aggregate swing is what the
// draws leave uncancelled, and a seed can land below any fixed bar. The
// claim is therefore stated over seeds 1-48: the day-two swing reaches the
// same 0.5-point bound on at least nine seeds in ten.
func TestDiurnalVariation(t *testing.T) {
	const seeds, bound = 48, 0.5
	met := 0
	for seed := int64(1); seed <= seeds; seed++ {
		cfg := smallConfig()
		cfg.Seed = seed
		tr := Generate(cfg)
		lo, hi := 1e9, 0.0
		for h := 24; h < 48; h++ {
			lo = min(lo, tr.CPUUsedPct[h])
			hi = max(hi, tr.CPUUsedPct[h])
		}
		if hi-lo >= bound {
			met++
		} else {
			t.Logf("seed %d: day-two usage %.2f..%.2f swings %.2f points, below %.1f", seed, lo, hi, hi-lo, bound)
		}
	}
	if 10*met < 9*seeds {
		t.Fatalf("day-two usage swings at least %.1f points on %d of %d seeds, want nine in ten", bound, met, seeds)
	}
}
