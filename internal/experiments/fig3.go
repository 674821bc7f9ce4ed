package experiments

import (
	"io"

	"quasar/internal/classify"
	"quasar/internal/cluster"
	"quasar/internal/par"
	"quasar/internal/sim"
	"quasar/internal/workload"
)

// Fig3Config sizes the density-sensitivity study.
type Fig3Config struct {
	EntriesGrid    []int // profiling entries per row per classification
	PerClass       int   // test workloads per app class per density point
	SeedLibPerType int   // library rows per workload type in the density sweep
	Seed           int64
	// PointClock returns a fresh Clock for each density point (and one more
	// for the decision-time section). The grid points run concurrently, so
	// each gets its own clock: a shared stateful fake clock would hand out
	// timestamps in completion order and break determinism. Nil means every
	// point reads the wall clock; tests inject a factory of fake clocks.
	PointClock func() Clock
	// Workers bounds the grid fan-out; zero means the process default.
	// Results are identical for any value.
	Workers int
}

// DefaultFig3Config matches the figure: density from one entry per row up
// to dense rows, three application classes.
func DefaultFig3Config() Fig3Config {
	return Fig3Config{
		EntriesGrid:    []int{1, 2, 3, 4, 6, 8, 12, 16, 24},
		PerClass:       6,
		SeedLibPerType: 4,
		Seed:           5,
	}
}

// Fig3Point is one (density, class) measurement.
type Fig3Point struct {
	Entries    int
	AppClass   string
	DensityPct float64            // entries / scale-up columns
	P90        map[string]float64 // per axis: scale-up, scale-out, hetero, interference
	// OverheadSecs is profiling+decision wall time for the four parallel
	// classifications at this density (per workload).
	OverheadSecs float64
}

// Fig3Result is the density sweep plus the 4-parallel vs exhaustive
// decision-time comparison.
type Fig3Result struct {
	Points []Fig3Point
	// FourParallelDecisionSecs and ExhaustiveDecisionSecs compare
	// classification (decision only) cost at the default density, per
	// arrival, against a library of DecisionRows rows. A model rebuild costs
	// O(nnz + min(rows, cols)³); with rows past both column counts the cubic
	// term is the column count's, which is where the joint space's penalty
	// — (ExhaustiveCols/ScaleUpCols)³ for the decomposition — shows.
	FourParallelDecisionSecs float64
	ExhaustiveDecisionSecs   float64
	DecisionRows             int
	ScaleUpCols              int
	ExhaustiveCols           int
}

// fig3MaxNodes bounds the scale-out and joint column spaces of the study.
const fig3MaxNodes = 32

// Fig3 runs the sweep and the decision-time comparison. The library of the
// comparison is sized just past the joint column count, so that both
// classifiers hold more rows than columns: the regime of a manager that has
// been running for a while, and the one in which the cost of rebuilding a
// model is set by its column count (see Fig3Result).
func Fig3(cfg Fig3Config) *Fig3Result {
	platforms := clusterPlatformsLocal()
	return fig3(cfg, platforms, len(classify.JointColumns(platforms, fig3MaxNodes))*9/8)
}

// fig3 is Fig3 with the decision-time library size given, for tests that
// pin determinism and not the cost regime. The density points are fully
// independent — each builds its own universe, engine, and noise streams from
// seeds derived from the entry count — so they fan out across workers; points
// land in the result in grid order regardless of which finishes first.
func fig3(cfg Fig3Config, platforms []cluster.Platform, libRows int) *Fig3Result {
	res := &Fig3Result{}
	classes := []struct {
		name string
		tp   workload.Type
	}{
		{"hadoop", workload.Hadoop},
		{"memcached", workload.Memcached},
		{"single-node", workload.SingleNode},
	}
	// Clocks are minted sequentially, one per grid point plus one for the
	// decision-time section, before the fan-out.
	pointClock := cfg.PointClock
	if pointClock == nil {
		pointClock = func() Clock { return wallClock }
	}
	clocks := make([]Clock, len(cfg.EntriesGrid))
	for i := range clocks {
		clocks[i] = pointClock()
	}
	decisionClock := pointClock()

	pointsPer := par.ParMap(cfg.Workers, len(cfg.EntriesGrid), func(gi int) []Fig3Point {
		entries := cfg.EntriesGrid[gi]
		clock := clocks[gi]
		u := workload.NewUniverse(platforms, cfg.Seed, 3)
		opts := classify.DefaultOptions()
		opts.MaxNodes = fig3MaxNodes
		opts.Entries = entries
		eng := classify.NewEngine(platforms, opts, sim.NewRNG(cfg.Seed+int64(entries)))
		rng := sim.NewRNG(cfg.Seed + 100 + int64(entries))
		var libWs []*workload.Instance
		var libPs []classify.Prober
		for _, tp := range []workload.Type{workload.Hadoop, workload.Memcached,
			workload.SingleNode, workload.Webserver, workload.Spark} {
			for i := 0; i < cfg.SeedLibPerType; i++ {
				w := u.New(workload.Spec{Type: tp, Family: -1, MaxNodes: 4})
				libWs = append(libWs, w)
				libPs = append(libPs, classify.NewGroundTruthProber(w, platforms, rng.Stream(w.ID)))
			}
		}
		eng.SeedOfflineMany(libWs, libPs)
		points := make([]Fig3Point, 0, len(classes))
		for _, cls := range classes {
			ws := make([]*workload.Instance, cfg.PerClass)
			for i := range ws {
				ws[i] = u.New(workload.Spec{Type: cls.tp, Family: -1, MaxNodes: 4})
			}
			var su, so, het, interf []float64
			start := clock()
			_, allErrs := classify.ValidateMany(eng, ws, cfg.Workers)
			for _, errs := range allErrs {
				su = append(su, errs.ScaleUp...)
				so = append(so, errs.ScaleOut...)
				het = append(het, errs.Hetero...)
				interf = append(interf, errs.Interf...)
			}
			elapsed := clock().Sub(start).Seconds() / float64(cfg.PerClass)
			points = append(points, Fig3Point{
				Entries:    entries,
				AppClass:   cls.name,
				DensityPct: 100 * float64(entries) / float64(len(eng.SUCols)),
				P90: map[string]float64{
					"scale-up":     classify.Stats(su).P90,
					"scale-out":    classify.Stats(so).P90,
					"hetero":       classify.Stats(het).P90,
					"interference": classify.Stats(interf).P90,
				},
				OverheadSecs: elapsed,
			})
		}
		return points
	})
	for _, pts := range pointsPer {
		res.Points = append(res.Points, pts...)
	}

	// Decision-time comparison at default density: classify the same
	// workloads through the four parallel classifications and through the
	// exhaustive joint classification (8 entries, as in Table 2).
	u := workload.NewUniverse(platforms, cfg.Seed+7, 3)
	opts := classify.DefaultOptions()
	opts.MaxNodes = fig3MaxNodes
	opts.CF.Epochs = 120 // cap: the point is the per-arrival cost *ratio*
	eng := classify.NewEngine(platforms, opts, sim.NewRNG(cfg.Seed+8))
	exh := classify.NewExhaustive(platforms, fig3MaxNodes, opts.CF, sim.NewRNG(cfg.Seed+9))
	rng := sim.NewRNG(cfg.Seed + 10)
	types := []workload.Type{workload.Hadoop, workload.Memcached, workload.SingleNode}
	var libWs []*workload.Instance
	var libPs []classify.Prober
	for i := 0; i < libRows; i++ {
		w := u.New(workload.Spec{Type: types[i%len(types)], Family: -1, MaxNodes: 4})
		p := classify.NewGroundTruthProber(w, platforms, rng.Stream(w.ID))
		libWs, libPs = append(libWs, w), append(libPs, p)
		exh.Seed(w, p)
	}
	eng.SeedOfflineMany(libWs, libPs)
	exh.Retrain()
	res.DecisionRows, res.ScaleUpCols, res.ExhaustiveCols = libRows, len(eng.SUCols), exh.NumColumns()
	// Per the paper, classification recomputes the reconstruction at every
	// arrival; the decision cost is therefore the model rebuild plus the
	// row estimate. The exhaustive joint space has several times more
	// columns, and a rebuild is cubic in them: that is its decision-time
	// penalty.
	clock := decisionClock
	n := 2
	start := clock()
	for i := 0; i < n; i++ {
		w := u.New(workload.Spec{Type: workload.Hadoop, Family: -1, MaxNodes: 4})
		eng.Classify(w, classify.NewGroundTruthProber(w, platforms, rng.Stream("4p/"+w.ID)))
		eng.RetrainAll()
	}
	res.FourParallelDecisionSecs = clock().Sub(start).Seconds() / float64(n)
	start = clock()
	for i := 0; i < n; i++ {
		w := u.New(workload.Spec{Type: workload.Hadoop, Family: -1, MaxNodes: 4})
		exh.Classify(w, classify.NewGroundTruthProber(w, platforms, rng.Stream("ex/"+w.ID)), 8)
		exh.Retrain()
	}
	res.ExhaustiveDecisionSecs = clock().Sub(start).Seconds() / float64(n)
	return res
}

// Print renders the sweep.
func (r *Fig3Result) Print(w io.Writer) {
	fprintf(w, "== Figure 3: classification error and overhead vs input matrix density ==\n")
	fprintf(w, "%-8s %-12s %9s | %9s %9s %9s %9s | %12s\n",
		"entries", "class", "density%", "su p90%", "so p90%", "het p90%", "int p90%", "overhead(ms)")
	for _, pt := range r.Points {
		fprintf(w, "%-8d %-12s %9.1f | %9.1f %9.1f %9.1f %9.1f | %12.2f\n",
			pt.Entries, pt.AppClass, pt.DensityPct,
			100*pt.P90["scale-up"], 100*pt.P90["scale-out"],
			100*pt.P90["hetero"], 100*pt.P90["interference"],
			pt.OverheadSecs*1000)
	}
	fprintf(w, "-- decision time per arrival (library of %d rows; %d scale-up vs %d joint columns) --\n",
		r.DecisionRows, r.ScaleUpCols, r.ExhaustiveCols)
	fprintf(w, "four parallel classifications: %8.2f ms\n", r.FourParallelDecisionSecs*1000)
	fprintf(w, "single exhaustive:             %8.2f ms (%.0fx)\n",
		r.ExhaustiveDecisionSecs*1000, r.ExhaustiveDecisionSecs/maxF(r.FourParallelDecisionSecs, 1e-9))
}

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
