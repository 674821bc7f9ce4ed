package experiments

import (
	"io"
	"sort"

	"quasar/internal/metrics"
	"quasar/internal/trace"
)

// Fig1Result reproduces Figure 1: utilization analysis of a large
// reservation-managed production cluster over 30 days.
type Fig1Result struct {
	Trace *trace.Trace
}

// Fig1 generates the synthetic Twitter-like trace.
func Fig1(cfg trace.Config) *Fig1Result {
	return &Fig1Result{Trace: trace.Generate(cfg)}
}

// Print renders the four panels as text series.
func (r *Fig1Result) Print(w io.Writer) {
	tr := r.Trace
	fprintf(w, "== Figure 1: reservation-managed cluster utilization (30 days) ==\n")
	fprintf(w, "-- (a) aggregate CPU used vs reserved (%% capacity, daily means) --\n")
	fprintf(w, "%-6s %10s %10s\n", "day", "used%", "reserved%")
	for d := 0; d*24 < len(tr.Hours); d++ {
		lo, hi := d*24, min((d+1)*24, len(tr.Hours))
		fprintf(w, "%-6d %10.1f %10.1f\n", d, meanOf(tr.CPUUsedPct[lo:hi]), meanOf(tr.CPUResvPct[lo:hi]))
	}
	fprintf(w, "-- (b) aggregate memory used vs reserved (%% capacity, trace means) --\n")
	fprintf(w, "mem used %.1f%%  mem reserved %.1f%%\n", meanOf(tr.MemUsedPct), meanOf(tr.MemResvPct))

	fprintf(w, "-- (c) CDF of per-server weekly CPU utilization --\n")
	fprintf(w, "%-8s", "util%")
	for wi := range tr.WeeklyServerCPU {
		fprintf(w, " week%d%%", wi+1)
	}
	fprintf(w, "\n")
	for _, u := range []float64{10, 20, 30, 40, 50, 60, 80, 100} {
		fprintf(w, "%-8.0f", u)
		for _, week := range tr.WeeklyServerCPU {
			var d metrics.Distribution
			for _, v := range week {
				d.Add(v)
			}
			fprintf(w, " %6.1f", 100*d.FractionBelow(u))
		}
		fprintf(w, "\n")
	}

	fprintf(w, "-- (d) reserved/used ratio per workload (percentiles) --\n")
	rs := append([]float64(nil), tr.ReservedToUsed...)
	sort.Float64s(rs)
	for _, p := range []float64{1, 10, 20, 30, 50, 70, 90, 99} {
		idx := int(p / 100 * float64(len(rs)-1))
		fprintf(w, "p%-4.0f ratio %.2fx\n", p, rs[idx])
	}
	over, under := 0, 0
	for _, x := range rs {
		if x > 1.2 {
			over++
		} else if x < 0.95 {
			under++
		}
	}
	fprintf(w, "over-sized: %.0f%%  under-sized: %.0f%%  (paper: ~70%% / ~20%%)\n",
		100*float64(over)/float64(len(rs)), 100*float64(under)/float64(len(rs)))
	fprintf(w, "summary: mean CPU used %.1f%% vs reserved %.1f%% (paper: <20%% vs ~80%%)\n",
		tr.MeanCPUUsedPct(), tr.MeanCPUResvPct())
}

func meanOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
