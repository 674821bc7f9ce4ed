package classify

import (
	"fmt"
	"math"

	"quasar/internal/cf"
	"quasar/internal/cluster"
	"quasar/internal/obs"
	"quasar/internal/obs/prof"
	"quasar/internal/par"
	"quasar/internal/sim"
	"quasar/internal/workload"
)

// Axis identifies one of the parallel classifications.
type Axis int

const (
	AxisScaleUp Axis = iota
	AxisScaleOut
	AxisHetero
	AxisTolerated
	AxisCaused

	numAxes
)

func (a Axis) String() string {
	switch a {
	case AxisScaleUp:
		return "scale-up"
	case AxisScaleOut:
		return "scale-out"
	case AxisHetero:
		return "heterogeneity"
	case AxisTolerated:
		return "interference-tolerated"
	case AxisCaused:
		return "interference-caused"
	}
	return fmt.Sprintf("axis(%d)", int(a))
}

// Options configures the engine.
type Options struct {
	// MaxNodes bounds the scale-out column grid (100 in the paper).
	MaxNodes int
	// Entries is the number of profiling samples per row per
	// classification (2 by default, per the paper's density analysis).
	Entries int
	// CF configures the latent-factor models.
	CF cf.Options
	// RetrainEvery triggers a full model retrain after this many changed
	// rows per axis: appended, re-profiled (one per written cell) or fed
	// back at runtime (once per retrain interval).
	RetrainEvery int
}

// DefaultOptions returns the paper's settings.
func DefaultOptions() Options {
	return Options{MaxNodes: 100, Entries: 2, CF: cf.DefaultOptions(), RetrainEvery: 25}
}

const logFloor = 1e-9

func safeLog(v float64) float64 {
	if v < logFloor {
		v = logFloor
	}
	return math.Log(v)
}

// axis is one classification: its matrix, the model reads fold in against,
// and the retraining state between the two.
//
// A retrain point is reached on the write side — once retrainThreshold()
// changed rows have been counted since the last one (appendUnfitted and
// feedback say what counts). There the matrix is frozen into a buffer the
// axis re-uses, an O(nnz) copy, and the freeze is fitted before anything
// reads the axis again: feedback fits on the spot (train), and an append
// (Engine.appendBatch) fits each axis once, after its last row, from the
// last freeze — nothing reads between the rows of a batch. Reads
// (estimateRow) only fold in, so they never write the axis and may run
// concurrently.
//
// A point reached from feedback (runtime feedback and Reclassify's
// re-profile) rewrites a few cells of rows the model already has, so its
// fit is warm: SGD starts from the current model (cf.TrainFrozenFrom).
// Every other fit is cold, from the SVD seed, and so a pure function of the
// freeze: appends (arrivals and library seeding), RetrainAll and
// LoadSnapshot.
type axis struct {
	name       string
	mat        *cf.Sparse
	model      *cf.Model
	frozen     *cf.Frozen // freeze buffer, re-used at every retrain point
	unfitted   bool       // frozen holds a retrain point the model was not fitted from yet
	sinceTrain int        // changes counted toward the next retrain point
	interval   int        // numbers the current retrain interval from 1; every retrain point bumps it
	fedIn      []int      // per row: the interval its runtime feedback was last counted in
	cfOpts     cf.Options
	retrain    int
	stats      AxisTrainStats
}

// AxisTrainStats counts one axis's retraining work since the engine was
// built. Fits counts the fits that ran, not the retrain points: a batch
// append that passes several points fits once.
type AxisTrainStats struct {
	Fits       int     // models fitted
	FitSeconds float64 // wall time spent fitting
	Epochs     int     // SGD epochs run over all fits
	Rises      int     // fits that stopped because an epoch's RMSE rose
	WarmFits   int     // fits seeded from the previous model, of Fits
	WarmEpochs int     // SGD epochs the warm fits ran, of Epochs
}

func newAxis(name string, cols int, cfOpts cf.Options, retrain int) *axis {
	return &axis{name: name, mat: cf.NewSparse(0, cols), cfOpts: cfOpts, retrain: retrain, interval: 1}
}

// retrainThreshold grows with the matrix so training cost stays amortized:
// small libraries retrain eagerly, large ones at ~20% growth.
func (a *axis) retrainThreshold() int {
	th := a.retrain
	if grow := a.mat.Rows / 5; grow > th {
		th = grow
	}
	return th
}

// appendUnfitted appends one row, and at a retrain point only freezes: the
// fit is left to the caller. The axis's first row is always a retrain point.
func (a *axis) appendUnfitted(obs map[int]float64) int {
	idx := a.mat.AppendRow(obs)
	a.sinceTrain++
	if (a.model == nil && !a.unfitted) || a.sinceTrain >= a.retrainThreshold() {
		a.point()
	}
	return idx
}

// train is a retrain point: it freezes the matrix as it stands and fits the
// model from the freeze, seeded from seed (nil: cold).
func (a *axis) train(seed *cf.Model) {
	a.point()
	a.fit(seed)
}

// point is a retrain point without its fit: it freezes the matrix into the
// axis's buffer and opens the next retrain interval.
func (a *axis) point() {
	a.frozen = a.mat.Freeze(a.frozen)
	a.unfitted = true
	a.sinceTrain = 0
	a.interval++
}

// fit fits the model from the last retrain point's freeze, with SGD seeded
// from seed, or cold from the SVD if seed is nil (see axis).
func (a *axis) fit(seed *cf.Model) {
	t0 := prof.Now()
	a.model = cf.TrainFrozenFrom(a.frozen, a.cfOpts, seed)
	a.unfitted = false
	a.stats.Fits++
	a.stats.Epochs += a.model.Epochs
	if a.model.Rose {
		a.stats.Rises++
	}
	if a.model.Warm {
		a.stats.WarmFits++
		a.stats.WarmEpochs += a.model.Epochs
	}
	a.stats.FitSeconds += float64(prof.Now()-t0) / 1e9
}

// estimateRow reconstructs a full row via fold-in from the union of the
// workload's accumulated matrix entries (profiling history plus runtime
// feedback) and the fresh observations, preferring fresh values where both
// exist. rowIdx < 0 skips the history merge. It only reads the axis; with no
// model yet (no rows) the observations themselves are the row.
func (a *axis) estimateRow(rowIdx int, obs map[int]float64) []float64 {
	merged := obs
	if rowIdx >= 0 && rowIdx < a.mat.Rows {
		merged = make(map[int]float64, len(obs)+4)
		for _, c := range a.mat.Row(rowIdx) {
			merged[int(c.Col)] = c.V
		}
		for j, v := range obs {
			merged[j] = v
		}
	}
	var row []float64
	if a.model != nil {
		row = a.model.FoldIn(merged)
	} else {
		row = make([]float64, a.mat.Cols)
	}
	for j, v := range merged {
		if j >= 0 && j < len(row) {
			row[j] = v
		}
	}
	return row
}

// How a write to an existing row counts toward the next retrain point.
const (
	perCell = false // every cell written is one change (Reclassify's re-profile)
	perRow  = true  // a row is one change per retrain interval (runtime feedback)
)

// feedback writes one cell of an existing row. The write always lands; what
// it adds toward the next retrain point depends on who writes. A re-profile
// counts every cell. Runtime feedback rewrites the same few cells of the same
// running workloads tick after tick, so it counts a row only the first time
// it is fed back since the last retrain point: "what changed" is rows, as for
// appends, not cell writes.
func (a *axis) feedback(row, col int, v float64, oncePerRow bool) {
	if row < 0 || row >= a.mat.Rows {
		return
	}
	a.mat.Set(row, col, v)
	if oncePerRow {
		if row >= len(a.fedIn) {
			a.fedIn = append(a.fedIn, make([]int, a.mat.Rows-len(a.fedIn))...)
		}
		if a.fedIn[row] == a.interval {
			return
		}
		a.fedIn[row] = a.interval
	}
	a.sinceTrain++
	if a.sinceTrain >= a.retrainThreshold() {
		a.train(a.model)
	}
}

// Engine is the classification engine: five matrices (four classifications,
// with interference split into tolerated and caused) over a fixed platform
// set.
type Engine struct {
	Platforms []cluster.Platform
	HighEnd   int
	SUCols    []ScaleUpCol
	SOCounts  []int

	// Derived from the platform set once, in NewEngine.
	suGrid      *scaleUpGrid
	refCol      int   // scale-up column of the reference allocation
	wholeCol    []int // per platform: scale-up column of its whole-node allocation
	secondary   int   // fixed second profiling platform
	informative []int // scale-up columns an arrival's extra probes draw from

	opts   Options
	axes   [numAxes]*axis
	rowOf  map[string]int
	rng    *sim.RNG
	tracer *obs.Tracer
	prof   *prof.Profiler
}

// SetTracer installs the tracer.
func (e *Engine) SetTracer(tr *obs.Tracer) { e.tracer = tr }

// SetProfiler installs the self-profiler; Classify, Reclassify and Feedback
// (the sequential, sim-goroutine entry points, i.e. every way a retrain point
// is reached during a run) attribute to prof.SubClassify, so a fit is booked
// to the classify section that reached its retrain point — never to the tick
// that encloses it. ClassifyDetached runs on pool workers and stays
// uninstrumented — the profiler is single-goroutine by design.
func (e *Engine) SetProfiler(p *prof.Profiler) { e.prof = p }

// NewEngine builds an engine for the platform set.
func NewEngine(platforms []cluster.Platform, opts Options, rng *sim.RNG) *Engine {
	if opts.MaxNodes <= 0 {
		opts.MaxNodes = 100
	}
	if opts.Entries <= 0 {
		opts.Entries = 2
	}
	if opts.RetrainEvery <= 0 {
		opts.RetrainEvery = 25
	}
	if opts.CF.Epochs == 0 {
		opts.CF = cf.DefaultOptions()
	}
	he := cluster.HighestEnd(platforms)
	e := &Engine{
		Platforms: platforms,
		HighEnd:   he,
		SUCols:    ScaleUpColumns(&platforms[he]),
		SOCounts:  ScaleOutCounts(opts.MaxNodes),
		suGrid:    newScaleUpGrid(platforms, he),
		secondary: secondaryPlatform(platforms, he),
		opts:      opts,
		rowOf:     make(map[string]int),
		rng:       rng,
	}
	e.refCol = e.suGrid.nearest(e.refAlloc())
	e.wholeCol = make([]int, len(platforms))
	for i := range platforms {
		e.wholeCol[i] = e.suGrid.nearest(cluster.Alloc{Cores: platforms[i].Cores, MemoryGB: platforms[i].MemoryGB})
	}
	e.informative = informativeCols(e.SUCols, e.refAlloc(), e.refCol)
	e.axes[AxisScaleUp] = newAxis("scale-up", len(e.SUCols), opts.CF, opts.RetrainEvery)
	e.axes[AxisScaleOut] = newAxis("scale-out", len(e.SOCounts), opts.CF, opts.RetrainEvery)
	e.axes[AxisHetero] = newAxis("heterogeneity", len(platforms), opts.CF, opts.RetrainEvery)
	e.axes[AxisTolerated] = newAxis("tolerated", int(cluster.NumResources), opts.CF, opts.RetrainEvery)
	e.axes[AxisCaused] = newAxis("caused", int(cluster.NumResources), opts.CF, opts.RetrainEvery)
	return e
}

// RetrainAll refits every axis model from its matrix as it stands, here and
// now. This is the cost a from-scratch reconstruction pays at an arrival (the
// paper's SVD + PQ-reconstruction per submission); the engine otherwise
// amortizes it via fold-in plus periodic retraining. It is one of the
// engine's two fan-outs (the other is SeedOfflineMany's probe stage): each of
// the five multi-millisecond fits touches only its own axis, so results match
// the sequential loop. Fig. 3 times it as the paper's four parallel
// classifications, so its fits are cold.
func (e *Engine) RetrainAll() {
	par.ParFor(int(numAxes), func(i int) {
		e.axes[i].train(nil)
	})
}

// EnsureTrained does nothing: every retrain point fits on the spot, so every
// axis with rows always has its model. It stays only because the ledger
// harness in bench/ still calls it.
func (e *Engine) EnsureTrained() {}

// TrainStats returns each axis's retraining counters, indexed by Axis.
func (e *Engine) TrainStats() []AxisTrainStats {
	out := make([]AxisTrainStats, numAxes)
	for i, a := range e.axes {
		out[i] = a.stats
	}
	return out
}

// Rows returns the number of workloads in the matrices.
func (e *Engine) Rows() int { return e.axes[AxisScaleUp].mat.Rows }

// RowOf returns the matrix row of a previously classified workload.
func (e *Engine) RowOf(id string) (int, bool) {
	r, ok := e.rowOf[id]
	return r, ok
}

// pickDistinct selects k distinct indices from [0,n).
func pickDistinct(rng *sim.RNG, n, k int) []int {
	if k > n {
		k = n
	}
	perm := rng.Perm(n)
	return perm[:k]
}

// refAlloc is the reference allocation every workload is measured at: the
// whole profiling (highest-end) node. All scale-up and heterogeneity matrix
// entries are stored relative to it, which makes rows scale-free — batch
// rates and service QPS can share matrices — and lets two sparse entries
// pin a row accurately. The absolute anchor is kept per workload in
// Estimates.RefPerf.
func (e *Engine) refAlloc() cluster.Alloc {
	p := &e.Platforms[e.HighEnd]
	return cluster.Alloc{Cores: p.Cores, MemoryGB: p.MemoryGB}
}

// secondaryPlatform returns the fixed second profiling platform: the
// lowest-end one (fewest total compute), most divergent from the reference.
func secondaryPlatform(platforms []cluster.Platform, highEnd int) int {
	best, bestScore := 0, math.Inf(1)
	for j := range platforms {
		if j == highEnd {
			continue
		}
		score := float64(platforms[j].Cores) * platforms[j].CorePerf
		if score < bestScore {
			best, bestScore = j, score
		}
	}
	return best
}

// informativeCols returns the scale-up columns an arrival's non-reference
// probes are drawn from: genuinely different core/memory points ("two
// different core/thread counts and memory allocations", §3.2) — probing near
// the reference says nothing about the curve's shape. With no such column
// every column but the reference qualifies.
func informativeCols(cols []ScaleUpCol, ref cluster.Alloc, refCol int) []int {
	out := make([]int, 0, len(cols))
	for j, col := range cols {
		if col.Cores*3 <= ref.Cores && col.MemoryGB*2 <= ref.MemoryGB && col.Cores >= ref.Cores/8 {
			out = append(out, j)
		}
	}
	if len(out) == 0 {
		for j := range cols {
			if j != refCol {
				out = append(out, j)
			}
		}
	}
	return out
}

// ProbeObs holds the sparse observations one profiling pass produced — one
// map per axis — plus the absolute performance anchor of the reference run.
// It is the unit that moves between the probe stage (prober- and
// workload-confined, may run concurrently across workloads) and the append
// stage (matrix mutation, always applied in input order).
type ProbeObs struct {
	RefPerf float64
	obs     [numAxes]map[int]float64
}

// SeedOfflineMany adds densely profiled workloads to every matrix — the
// paper's offline-characterized library ("a small number of different
// workload types (20-30)" profiled exhaustively, §3.2). It probes ws[i] with
// probers[i] (a library's GroundTruthProbers, the slice Exhaustive.SeedMany
// takes too) on the worker pool (each prober touches only its own workload,
// so the ws must be distinct instances), then traces a seed-probe event per
// workload and appends the rows as one batch, both in input order.
func (e *Engine) SeedOfflineMany(ws []*workload.Instance, probers []*GroundTruthProber) {
	pos := par.ParMap(len(ws), func(i int) *ProbeObs {
		return e.probeSeed(ws[i], probers[i])
	})
	if e.tracer.Enabled() {
		for i, w := range ws {
			e.tracer.Instant("classify", "classify", "seed-probe",
				obs.Arg{Key: "workload", Val: w.ID},
				obs.Arg{Key: "ref_perf", Val: pos[i].RefPerf})
		}
	}
	ids := make([]string, len(ws))
	for i, w := range ws {
		ids[i] = w.ID
	}
	e.appendBatch(ids, pos)
}

// probeSeed runs the dense offline characterization. It only reads engine
// state (column grids, platforms) and draws nothing from the engine RNG.
func (e *Engine) probeSeed(w *workload.Instance, p Prober) *ProbeObs {
	ref := p.ScaleUp(e.refAlloc())
	su := make(map[int]float64, len(e.SUCols))
	for j, col := range e.SUCols {
		su[j] = safeLog(p.ScaleUp(cluster.Alloc{Cores: col.Cores, MemoryGB: col.MemoryGB})) - safeLog(ref)
	}
	so := make(map[int]float64, len(e.SOCounts))
	if w.Type.Distributed() {
		alloc := e.profilingAlloc()
		for j, n := range e.SOCounts {
			if n == 1 {
				so[j] = 0
				continue
			}
			so[j] = safeLog(p.ScaleOut(n, alloc))
		}
	}
	het := make(map[int]float64, len(e.Platforms))
	refHet := p.Heterogeneity(e.HighEnd)
	for j := range e.Platforms {
		het[j] = safeLog(p.Heterogeneity(j)) - safeLog(refHet)
	}
	tol := make(map[int]float64, int(cluster.NumResources))
	caused := make(map[int]float64, int(cluster.NumResources))
	for r := 0; r < int(cluster.NumResources); r++ {
		tol[r] = clamp01(p.ToleratedIntensity(cluster.Resource(r)))
		caused[r] = clamp01(p.CausedIntensity(cluster.Resource(r)))
	}
	po := &ProbeObs{RefPerf: ref}
	po.obs[AxisScaleUp] = su
	po.obs[AxisScaleOut] = so
	po.obs[AxisHetero] = het
	po.obs[AxisTolerated] = tol
	po.obs[AxisCaused] = caused
	return po
}

// appendObs appends one workload's observations to all five matrices and
// returns its row: a batch of one.
func (e *Engine) appendObs(id string, po *ProbeObs) int {
	e.appendBatch([]string{id}, []*ProbeObs{po})
	return e.Rows() - 1
}

// appendBatch appends pos[i] as the row of workload ids[i], in input order.
// Every retrain point an axis reaches freezes, counts and opens its interval
// as it comes, but nothing reads a model between the rows, so only the last
// one is fitted: each axis that reached a point fits once, after the last
// row. Matrices, models and counters end as appending and fitting one row at
// a time would leave them; only the fit statistics count fewer fits.
func (e *Engine) appendBatch(ids []string, pos []*ProbeObs) {
	for i, po := range pos {
		for j, a := range e.axes {
			a.appendUnfitted(po.obs[j])
		}
		e.rowOf[ids[i]] = e.axes[AxisScaleUp].mat.Rows - 1
	}
	for _, a := range e.axes {
		if a.unfitted {
			a.fit(nil)
		}
	}
}

// profilingAlloc is the reference per-node allocation for scale-out probes:
// half the profiling platform.
func (e *Engine) profilingAlloc() cluster.Alloc {
	p := &e.Platforms[e.HighEnd]
	return cluster.Alloc{Cores: max(1, p.Cores/2), MemoryGB: p.MemoryGB / 2}
}

// Classify profiles an arriving workload with Entries samples per axis (the
// paper's sparse profiling: two scale-up runs, one scale-out run, one
// heterogeneity run, two injected microbenchmarks) and reconstructs its
// full rows by fold-in. The workload is appended to the matrices so later
// arrivals benefit from it.
func (e *Engine) Classify(w *workload.Instance, p Prober) *Estimates {
	t0 := e.prof.Begin()
	defer e.prof.End(prof.SubClassify, t0)
	po := e.probeArrival(w, p, e.rng.Stream("classify/"+w.ID))
	row := e.appendObs(w.ID, po)
	if e.tracer.Enabled() {
		e.tracer.Instant("classify", "classify", "classify",
			obs.Arg{Key: "workload", Val: w.ID},
			obs.Arg{Key: "row", Val: row},
			obs.Arg{Key: "ref_perf", Val: po.RefPerf})
	}
	return e.estimatesFromProbe(w, row, po)
}

// ClassifyDetached classifies w against the engine's models without touching
// engine state: probes come through the supplied RNG (derive it from the
// engine stream in input order before fanning out), and the row estimate
// folds in against the models as last fitted. It is the concurrent half of a
// batch classification — run ClassifyDetached across workloads on the pool,
// then Append each returned ProbeObs in input order so the matrices grow
// exactly as a sequential pass would.
//
// Detached estimates differ from Classify's in one way: they do not see the
// other workloads of the same batch (fold-in is against the models as of the
// batch start), matching the paper's view of independent per-arrival
// classification.
func (e *Engine) ClassifyDetached(w *workload.Instance, p Prober, rng *sim.RNG) (*Estimates, *ProbeObs) {
	po := e.probeArrival(w, p, rng)
	return e.estimatesFromProbe(w, -1, po), po
}

// Append adds a detached arrival's observations to the matrices and returns
// its row. It mutates axis state and must be called sequentially, in input
// order, after the detached fan-out has completed.
func (e *Engine) Append(id string, po *ProbeObs) int {
	return e.appendObs(id, po)
}

// probeArrival runs the sparse online profiling for one arrival. It reads
// engine state but never writes it, draws only from the supplied rng, and
// confines workload mutation to the prober — the properties that let a
// detached batch run many probeArrivals concurrently.
func (e *Engine) probeArrival(w *workload.Instance, p Prober, rng *sim.RNG) *ProbeObs {
	entries := e.opts.Entries

	// Reference run: the whole profiling node. It anchors the absolute
	// performance scale and doubles as the scale-up reference entry and
	// the heterogeneity entry for the profiling platform.
	refPerf := p.ScaleUp(e.refAlloc())
	refLog := safeLog(refPerf)

	// Scale-up: the reference plus Entries-1 of the informative columns.
	su := make(map[int]float64, entries)
	su[e.refCol] = 0
	for _, oi := range pickDistinct(rng, len(e.informative), entries-1) {
		j := e.informative[oi]
		col := e.SUCols[j]
		su[j] = safeLog(p.ScaleUp(cluster.Alloc{Cores: col.Cores, MemoryGB: col.MemoryGB})) - refLog
	}

	// Scale-out: the single-node point is free (ratio 1); each further
	// entry probes a small node count (profiling uses 1-4 nodes online).
	so := make(map[int]float64)
	if w.Type.Distributed() {
		so[0] = 0 // n=1 -> log ratio 0
		alloc := e.profilingAlloc()
		smallCounts := []int{} // indices of counts 2..4
		for j, n := range e.SOCounts {
			if n >= 2 && n <= 4 {
				smallCounts = append(smallCounts, j)
			}
		}
		picks := pickDistinct(rng, len(smallCounts), entries-1)
		for _, pi := range picks {
			j := smallCounts[pi]
			so[j] = safeLog(p.ScaleOut(e.SOCounts[j], alloc))
		}
	}

	// Heterogeneity: the profiling platform (the reference run) plus a
	// fixed secondary platform — the paper always profiles on the same
	// pair ("the two platforms used are A and B", §3.4). The low-end
	// platform is maximally divergent from the reference, which pins the
	// row's spread; additional entries (when Entries > 2) cover random
	// other platforms.
	het := make(map[int]float64, entries)
	het[e.HighEnd] = 0
	second := e.secondary
	if entries >= 2 {
		het[second] = safeLog(p.Heterogeneity(second)) - refLog
	}
	if extra := entries - 2; extra > 0 {
		others := make([]int, 0, len(e.Platforms))
		for j := range e.Platforms {
			if j != e.HighEnd && j != second {
				others = append(others, j)
			}
		}
		for _, oi := range pickDistinct(rng, len(others), extra) {
			j := others[oi]
			het[j] = safeLog(p.Heterogeneity(j)) - refLog
		}
	}

	// Interference: Entries microbenchmarks injected for tolerated, and
	// Entries reverse measurements for caused.
	tol := make(map[int]float64, entries)
	for _, r := range pickDistinct(rng, int(cluster.NumResources), entries) {
		tol[r] = clamp01(p.ToleratedIntensity(cluster.Resource(r)))
	}
	caused := make(map[int]float64, entries)
	for _, r := range pickDistinct(rng, int(cluster.NumResources), entries) {
		caused[r] = clamp01(p.CausedIntensity(cluster.Resource(r)))
	}

	po := &ProbeObs{RefPerf: refPerf}
	po.obs[AxisScaleUp] = su
	po.obs[AxisScaleOut] = so
	po.obs[AxisHetero] = het
	po.obs[AxisTolerated] = tol
	po.obs[AxisCaused] = caused
	return po
}

// estimatesFromProbe reconstructs full rows from one arrival's observations,
// one axis after the other. row < 0 is the detached mode: no history merge.
func (e *Engine) estimatesFromProbe(w *workload.Instance, row int, po *ProbeObs) *Estimates {
	es := &Estimates{
		Engine:  e,
		ID:      w.ID,
		Row:     row,
		Class:   w.Type.Class(),
		RefPerf: po.RefPerf,
	}
	var rows [numAxes][]float64
	for i, a := range e.axes {
		switch {
		case Axis(i) == AxisScaleOut && !w.Type.Distributed():
			rows[i] = make([]float64, len(e.SOCounts)) // flat: no scale-out
		default:
			rows[i] = a.estimateRow(row, po.obs[i])
		}
	}
	es.SULog = rows[AxisScaleUp]
	es.SOLog = rows[AxisScaleOut]
	es.HetLog = rows[AxisHetero]
	for r := 0; r < int(cluster.NumResources); r++ {
		es.Tol[r] = clamp01(rows[AxisTolerated][r])
		es.Caused[r] = clamp01(rows[AxisCaused][r])
	}
	es.deriveBeta(po.obs[AxisScaleOut])
	return es
}

// Reclassify re-profiles a workload in place (phase change or detected
// misclassification, §4.1) and returns fresh estimates. The re-profile is
// the sparse profiling an arrival gets (probeArrival, on the workload's own
// reclassify stream); every probed cell then overwrites the workload's
// existing row, axis by axis in ascending column order, each cell one change
// toward the axis's next retrain point.
func (e *Engine) Reclassify(w *workload.Instance, p Prober) *Estimates {
	t0 := e.prof.Begin()
	defer e.prof.End(prof.SubClassify, t0)
	row, ok := e.rowOf[w.ID]
	if !ok {
		return e.Classify(w, p)
	}
	if e.tracer.Enabled() {
		e.tracer.Instant("classify", "classify", "reclassify",
			obs.Arg{Key: "workload", Val: w.ID},
			obs.Arg{Key: "row", Val: row})
	}
	po := e.probeArrival(w, p, e.rng.Stream("reclassify/"+w.ID))
	for i, a := range e.axes {
		for j := 0; j < a.mat.Cols; j++ {
			if v, ok := po.obs[i][j]; ok {
				a.feedback(row, j, v, perCell)
			}
		}
	}
	return e.estimatesFromProbe(w, row, po)
}

// Feedback updates one matrix entry with a runtime-observed value (the
// paper's feedback loop that corrects misclassifications and extends the
// matrices past profiling scale, §3.2). The entry is written every time, but
// it counts toward the axis's next retrain point only the first time its row
// is fed back since the last one. An unknown workload or axis, a
// column outside the axis, and a value that is not finite are ignored: one
// NaN cell would make every value of the axis's next fit NaN.
func (e *Engine) Feedback(id string, axis Axis, col int, value float64) {
	t0 := e.prof.Begin()
	defer e.prof.End(prof.SubClassify, t0)
	row, ok := e.rowOf[id]
	if !ok || axis < 0 || axis >= numAxes || col < 0 || col >= e.axes[axis].mat.Cols ||
		math.IsNaN(value) || math.IsInf(value, 0) {
		return
	}
	if axis == AxisScaleUp || axis == AxisScaleOut || axis == AxisHetero {
		value = safeLog(value)
	} else {
		value = clamp01(value)
	}
	e.axes[axis].feedback(row, col, value, perRow)
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}
