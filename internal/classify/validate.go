package classify

import (
	"math"
	"sort"

	"quasar/internal/cluster"
	"quasar/internal/par"
	"quasar/internal/sim"
	"quasar/internal/workload"
)

// ErrorStats summarizes a set of estimation errors the way Table 2 reports
// them: average, 90th percentile, and maximum.
type ErrorStats struct {
	Avg, P90, Max float64
	N             int
}

// Stats computes ErrorStats over raw errors.
func Stats(errs []float64) ErrorStats {
	if len(errs) == 0 {
		return ErrorStats{}
	}
	s := append([]float64(nil), errs...)
	sort.Float64s(s)
	sum := 0.0
	for _, e := range s {
		sum += e
	}
	idx := int(math.Ceil(0.9*float64(len(s)))) - 1
	if idx < 0 {
		idx = 0
	}
	return ErrorStats{
		Avg: sum / float64(len(s)),
		P90: s[idx],
		Max: s[len(s)-1],
		N:   len(s),
	}
}

// relErr returns |est-true|/true, guarding tiny denominators.
func relErr(est, truth float64) float64 {
	if truth < 1e-9 {
		if est < 1e-9 {
			return 0
		}
		return 1
	}
	return math.Abs(est-truth) / truth
}

// ValidationErrors holds per-axis error samples: the deviation between
// classification estimates and detailed ground-truth characterization over
// every column.
type ValidationErrors struct {
	ScaleUp  []float64
	ScaleOut []float64
	Hetero   []float64
	Interf   []float64
}

// ValidateMany classifies ws with the engine (sparse profiling through a
// noisy prober) and compares each reconstructed row against exhaustive
// noise-free characterization, column by column: the Table 2 measurement.
// It returns the errors of every workload pooled in input order. Per-workload
// RNG streams are derived from the engine stream sequentially, in input
// order, and the profiling and comparison then fan out across workers, so the
// result is identical for any pool size. Classification is detached:
// every workload folds in against the models as of the batch start, then the
// observations are appended in input order, as one batch.
func ValidateMany(e *Engine, ws []*workload.Instance) ValidationErrors {
	probeRNGs := make([]*sim.RNG, len(ws))
	classifyRNGs := make([]*sim.RNG, len(ws))
	for i, w := range ws {
		probeRNGs[i] = e.rng.Stream("probe/" + w.ID)
		classifyRNGs[i] = e.rng.Stream("classify/" + w.ID)
	}
	type result struct {
		po   *ProbeObs
		errs ValidationErrors
	}
	results := par.ParMap(len(ws), func(i int) result {
		w := ws[i]
		noisy := NewGroundTruthProber(w, e.Platforms, probeRNGs[i])
		es, po := e.ClassifyDetached(w, noisy, classifyRNGs[i])
		truth := NewGroundTruthProber(w, e.Platforms, nil) // nil RNG: noise-free
		return result{po, CompareToTruth(es, w, truth)}
	})
	ids := make([]string, len(ws))
	pos := make([]*ProbeObs, len(ws))
	var pooled ValidationErrors
	for i, r := range results {
		ids[i], pos[i] = ws[i].ID, r.po
		pooled.ScaleUp = append(pooled.ScaleUp, r.errs.ScaleUp...)
		pooled.ScaleOut = append(pooled.ScaleOut, r.errs.ScaleOut...)
		pooled.Hetero = append(pooled.Hetero, r.errs.Hetero...)
		pooled.Interf = append(pooled.Interf, r.errs.Interf...)
	}
	e.appendBatch(ids, pos)
	return pooled
}

// CompareToTruth computes per-column errors of estimates against a
// noise-free prober.
func CompareToTruth(es *Estimates, w *workload.Instance, truth *GroundTruthProber) ValidationErrors {
	var v ValidationErrors
	e := es.Engine

	// Columns where the true performance is negligible (a starved
	// allocation a scheduler would never pick — e.g. a service whose
	// QPS-at-QoS is ~0 at one core) produce unbounded *relative* errors
	// that say nothing about decision quality; skip them.
	refTruth := truth.ScaleUp(e.refAlloc())
	negligible := 0.02 * refTruth

	for j, col := range e.SUCols {
		tr := truth.ScaleUp(cluster.Alloc{Cores: col.Cores, MemoryGB: col.MemoryGB})
		if tr < negligible {
			continue
		}
		v.ScaleUp = append(v.ScaleUp, relErr(es.RefPerf*math.Exp(es.SULog[j]), tr))
	}
	if w.Type.Distributed() {
		alloc := e.profilingAlloc()
		for j, n := range e.SOCounts {
			tr := truth.ScaleOut(n, alloc)
			v.ScaleOut = append(v.ScaleOut, relErr(math.Exp(es.SOLog[j]), tr))
		}
	}
	for j := range e.Platforms {
		tr := truth.Heterogeneity(j)
		if tr < negligible {
			continue
		}
		v.Hetero = append(v.Hetero, relErr(es.RefPerf*math.Exp(es.HetLog[j]), tr))
	}
	for r := 0; r < int(cluster.NumResources); r++ {
		trTol := truth.ToleratedIntensity(cluster.Resource(r))
		trCaused := truth.CausedIntensity(cluster.Resource(r))
		// Sensitivities live on a 0..1 intensity scale; absolute error on
		// that scale is the natural "% error".
		v.Interf = append(v.Interf, math.Abs(es.Tol[r]-trTol))
		v.Interf = append(v.Interf, math.Abs(es.Caused[r]-trCaused))
	}
	return v
}

// ValidateExhaustiveMany classifies ws with the joint classifier and scores
// each reconstructed row against noise-free characterization, returning the
// errors of every workload pooled in input order. The probing and fold-in fan
// out across workers (per-workload streams derived in input order, every
// fold-in against the model as of the batch start); the observations are
// then appended in input order, as one batch.
func ValidateExhaustiveMany(x *Exhaustive, ws []*workload.Instance, noisy []*GroundTruthProber, entries int) []float64 {
	rngs := make([]*sim.RNG, len(ws))
	for i, w := range ws {
		rngs[i] = x.rng.Stream("exhaustive/" + w.ID)
	}
	type result struct {
		errs []float64
		obs  map[int]float64
	}
	results := par.ParMap(len(ws), func(i int) result {
		obs := x.probe(ws[i], noisy[i], entries, rngs[i])
		return result{compareExhaustive(x, ws[i], x.ax.estimateRow(-1, obs)), obs}
	})
	var pooled []float64
	rows := make([]map[int]float64, len(ws))
	for i, r := range results {
		pooled, rows[i] = append(pooled, r.errs...), r.obs
	}
	x.appendBatch(rows)
	return pooled
}

// compareExhaustive scores a reconstructed joint row against noise-free
// characterization over every valid, non-negligible column.
func compareExhaustive(x *Exhaustive, w *workload.Instance, row []float64) []float64 {
	truth := NewGroundTruthProber(w, x.Platforms, nil)
	// Reference scale for the negligible-column filter: the biggest
	// single-node configuration.
	refTruth := 0.0
	for _, col := range x.Cols {
		// CoreFrac values come from a fixed configuration grid, so the
		// full-machine column is exactly 1.0.
		if col.Nodes == 1 && col.CoreFrac == 1.0 { //lint:allow(floatcmp)
			if tr := truth.JointPerf(col.PlatformIdx, 1, col.Alloc(x.Platforms)); tr > refTruth {
				refTruth = tr
			}
		}
	}
	var errs []float64
	for _, j := range x.validCols(w) {
		col := x.Cols[j]
		tr := truth.JointPerf(col.PlatformIdx, col.Nodes, col.Alloc(x.Platforms))
		if tr < 0.02*refTruth {
			continue
		}
		errs = append(errs, relErr(math.Exp(row[j]), tr))
	}
	return errs
}
