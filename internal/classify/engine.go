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
	// RetrainEvery triggers a full model retrain after this many appended
	// rows per axis.
	RetrainEvery int
	// Workers bounds the goroutines used for the per-axis fan-out (the
	// paper's four parallel classifications). Zero means the process
	// default (par.Resolve). The count never changes results — each axis
	// is confined to one task and merged by axis index.
	Workers int
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
// Retraining is split in two. A retrain point (train) is reached on the write
// side — every retrainThreshold()-th appended row or feedback entry — and
// only freezes the matrix as it stands: an O(nnz) copy into a buffer the axis
// re-uses. The fit that turns the freeze into a model runs on the read side,
// in the first estimateRow / EnsureTrained / RetrainAll / LoadSnapshot after
// it; a retrain point reached before anyone read the previous one overwrites
// its freeze, so a model nobody consults is never built. cf.TrainFrozen is a
// pure function of the frozen cells and the options (it seeds its own shuffle
// and draws nothing from the engine RNG), so every read sees exactly the model
// an on-the-spot fit would have produced.
type axis struct {
	name       string
	mat        *cf.Sparse
	model      *cf.Model
	frozen     *cf.Frozen // the matrix at the latest retrain point
	pending    bool       // frozen has not been fitted into model yet
	sinceTrain int
	cfOpts     cf.Options
	retrain    int
	stats      AxisTrainStats
}

// AxisTrainStats counts one axis's retraining work since the engine was
// built. Points − Fits is what deferral saved: retrain points overwritten by
// the next one before any read (less the one that may still be pending).
type AxisTrainStats struct {
	Points     int     // retrain points reached
	Fits       int     // models fitted
	FitSeconds float64 // wall time spent fitting
}

func newAxis(name string, cols int, cfOpts cf.Options, retrain int) *axis {
	return &axis{name: name, mat: cf.NewSparse(0, cols), cfOpts: cfOpts, retrain: retrain}
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

func (a *axis) appendRow(obs map[int]float64) int {
	idx := a.mat.AppendRow(obs)
	a.sinceTrain++
	if !a.trained() || a.sinceTrain >= a.retrainThreshold() {
		a.train()
	}
	return idx
}

// trained reports whether the axis has a model or the freeze to fit one from.
func (a *axis) trained() bool { return a.model != nil || a.pending }

// train marks a retrain point: the matrix is frozen for the next reader to
// fit, replacing a freeze nobody read.
func (a *axis) train() {
	a.frozen = a.mat.Freeze(a.frozen)
	a.pending = true
	a.sinceTrain = 0
	a.stats.Points++
}

// fit resolves a pending retrain point into the model. It is the only place
// the engine trains, and a no-op when nothing is pending.
func (a *axis) fit() {
	if !a.pending {
		return
	}
	t0 := prof.Now()
	a.model = cf.TrainFrozen(a.frozen, a.cfOpts)
	a.pending = false
	a.stats.Fits++
	a.stats.FitSeconds += float64(prof.Now()-t0) / 1e9
}

// estimateRow reconstructs a full row via fold-in from the union of the
// workload's accumulated matrix entries (profiling history plus runtime
// feedback) and the fresh observations, preferring fresh values where both
// exist. rowIdx < 0 skips the history merge.
func (a *axis) estimateRow(rowIdx int, obs map[int]float64) []float64 {
	if !a.trained() {
		a.train()
	}
	a.fit()
	merged := make(map[int]float64, len(obs)+4)
	if rowIdx >= 0 && rowIdx < a.mat.Rows {
		for j, v := range a.mat.Row(rowIdx) {
			merged[j] = v
		}
	}
	for j, v := range obs {
		merged[j] = v
	}
	row := a.model.FoldIn(merged)
	for j, v := range merged {
		if j >= 0 && j < len(row) {
			row[j] = v
		}
	}
	return row
}

// estimateRowFrozen is estimateRow for detached classification: strictly
// read-only (no training, no fit of a pending retrain point, no history
// merge), so concurrent calls against the same axis are safe. It folds in
// against the model as last fitted — stale if a retrain point is pending,
// which is why callers run EnsureTrained first. With no model at all the
// observations themselves are the best available row.
func (a *axis) estimateRowFrozen(obs map[int]float64) []float64 {
	if a.model == nil {
		row := make([]float64, a.mat.Cols)
		for j, v := range obs {
			if j >= 0 && j < len(row) {
				row[j] = v
			}
		}
		return row
	}
	row := a.model.FoldIn(obs)
	for j, v := range obs {
		if j >= 0 && j < len(row) {
			row[j] = v
		}
	}
	return row
}

func (a *axis) feedback(row, col int, v float64) {
	if row < 0 || row >= a.mat.Rows {
		return
	}
	a.mat.Set(row, col, v)
	a.sinceTrain++
	if a.sinceTrain >= a.retrainThreshold() {
		a.train()
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

	opts    Options
	workers int
	axes    [numAxes]*axis
	rowOf   map[string]int
	rng     *sim.RNG
	tracer  *obs.Tracer
	prof    *prof.Profiler
}

// SetTracer installs the tracer. Probe fan-outs trace through shards merged
// in input order, so emission stays deterministic across worker counts.
func (e *Engine) SetTracer(tr *obs.Tracer) { e.tracer = tr }

// SetProfiler installs the self-profiler; Classify, Reclassify, Feedback and
// EnsureTrained (the sequential, sim-goroutine entry points, i.e. every way
// a retrain point or a fit is reached during a run) attribute to
// prof.SubClassify: a Feedback that crosses the threshold books only the
// freeze, and the fit is booked inside the next Classify, Reclassify or
// EnsureTrained — never to the tick that encloses them. ClassifyDetached
// runs on pool workers and stays uninstrumented — the profiler is
// single-goroutine by design.
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
	if opts.CF.K == 0 {
		opts.CF = cf.DefaultOptions()
	}
	he := cluster.HighestEnd(platforms)
	e := &Engine{
		Platforms: platforms,
		HighEnd:   he,
		SUCols:    ScaleUpColumns(&platforms[he]),
		SOCounts:  ScaleOutCounts(opts.MaxNodes),
		suGrid:    newScaleUpGrid(&platforms[he]),
		secondary: secondaryPlatform(platforms, he),
		opts:      opts,
		workers:   opts.Workers,
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
// amortizes it via fold-in plus periodic retraining. The five retrains run on
// the axis fan-out pool; each touches only its own axis, so results match the
// sequential loop.
func (e *Engine) RetrainAll() {
	par.ParFor(e.workers, int(numAxes), func(i int) {
		e.axes[i].train()
		e.axes[i].fit()
	})
}

// EnsureTrained brings every axis model up to its latest retrain point: it
// fits whatever is pending, and trains any axis that has rows but was never
// trained. Callers must invoke it before a detached (concurrent, read-only)
// classification pass so the fan-out folds in against settled models instead
// of racing to fit.
func (e *Engine) EnsureTrained() {
	t0 := e.prof.Begin()
	defer e.prof.End(prof.SubClassify, t0)
	par.ParFor(e.workers, int(numAxes), func(i int) {
		a := e.axes[i]
		if !a.trained() && a.mat.Rows > 0 {
			a.train()
		}
		a.fit()
	})
}

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

// SeedOffline adds a densely profiled workload to every matrix — the
// paper's offline-characterized library ("a small number of different
// workload types (20-30)" profiled exhaustively, §3.2).
func (e *Engine) SeedOffline(w *workload.Instance, p Prober) {
	e.appendObs(w.ID, e.probeSeed(w, p))
}

// SeedOfflineMany seeds ws[i] with probers[i] concurrently. The dense probe
// stage fans out (each task touches only its own workload and prober); the
// appends then land sequentially in input order, so the matrices are
// byte-identical to seeding the workloads one at a time.
func (e *Engine) SeedOfflineMany(ws []*workload.Instance, probers []Prober) {
	shards := e.tracer.Shards(len(ws))
	all := par.ParMap(e.workers, len(ws), func(i int) *ProbeObs {
		po := e.probeSeed(ws[i], probers[i])
		if sh := shards[i]; sh.Enabled() {
			sh.Instant("classify", "classify", "seed-probe",
				obs.Arg{Key: "workload", Val: ws[i].ID},
				obs.Arg{Key: "ref_perf", Val: po.RefPerf})
		}
		return po
	})
	e.tracer.Merge(shards)
	for i, po := range all {
		e.appendObs(ws[i].ID, po)
	}
}

// probeSeed runs the dense offline characterization. It only reads engine
// state (column grids, platforms) and draws nothing from the engine RNG, so
// it is safe to run concurrently across workloads.
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

// appendObs appends one workload's observations to all five matrices, each
// axis on its own task (the paper's parallel classifications). Per-axis
// training state is confined to its task, so the matrices and models come
// out identical to a sequential append.
func (e *Engine) appendObs(id string, po *ProbeObs) int {
	par.ParFor(e.workers, int(numAxes), func(i int) {
		e.axes[i].appendRow(po.obs[i])
	})
	row := e.axes[AxisScaleUp].mat.Rows - 1
	e.rowOf[id] = row
	return row
}

// profilingAlloc is the reference per-node allocation for scale-out probes:
// half the profiling platform.
func (e *Engine) profilingAlloc() cluster.Alloc {
	p := &e.Platforms[e.HighEnd]
	return cluster.Alloc{Cores: maxInt(1, p.Cores/2), MemoryGB: p.MemoryGB / 2}
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

// ClassifyDetached classifies w against the engine's settled models without
// touching engine state: probes come through the supplied RNG (derive it
// from the engine stream in input order before fanning out), and the row
// estimate folds in against the models as last fitted. It is the concurrent
// half of a batch classification — call EnsureTrained first (it fits any
// retrain point still pending; without it the fold-in is against the model
// before that point), run ClassifyDetached across workloads on the pool, then
// Append each returned ProbeObs in input order so the matrices grow exactly
// as a sequential pass would.
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

// estimatesFromProbe reconstructs full rows from one arrival's observations.
// The five axis estimates run on the fan-out pool and merge by axis index.
// row < 0 is the detached mode: no history merge and strictly read-only
// fold-in against the frozen models.
func (e *Engine) estimatesFromProbe(w *workload.Instance, row int, po *ProbeObs) *Estimates {
	es := &Estimates{
		Engine:  e,
		ID:      w.ID,
		Row:     row,
		Class:   w.Type.Class(),
		RefPerf: po.RefPerf,
	}
	var rows [numAxes][]float64
	par.ParFor(e.workers, int(numAxes), func(i int) {
		if Axis(i) == AxisScaleOut && !w.Type.Distributed() {
			rows[i] = make([]float64, len(e.SOCounts)) // flat: no scale-out
			return
		}
		if row < 0 {
			rows[i] = e.axes[i].estimateRowFrozen(po.obs[i])
			return
		}
		rows[i] = e.axes[i].estimateRow(row, po.obs[i])
	})
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
// misclassification, §4.1) and returns fresh estimates. The workload's
// existing matrix row is overwritten with the new observations.
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
	rng := e.rng.Stream("reclassify/" + w.ID)
	entries := e.opts.Entries

	refPerf := p.ScaleUp(e.refAlloc())
	refLog := safeLog(refPerf)
	su := make(map[int]float64, entries)
	su[e.refCol] = 0
	e.axes[AxisScaleUp].feedback(row, e.refCol, 1) // safeLog(1)=0 via feedback transform
	for _, j := range pickDistinct(rng, len(e.SUCols), entries) {
		col := e.SUCols[j]
		v := safeLog(p.ScaleUp(cluster.Alloc{Cores: col.Cores, MemoryGB: col.MemoryGB})) - refLog
		su[j] = v
		e.axes[AxisScaleUp].feedback(row, j, math.Exp(v))
	}
	so := map[int]float64{}
	if w.Type.Distributed() {
		so[0] = 0
	}
	het := map[int]float64{}
	het[e.HighEnd] = 0
	e.axes[AxisHetero].feedback(row, e.HighEnd, 1)
	tol := make(map[int]float64, entries)
	for _, r := range pickDistinct(rng, int(cluster.NumResources), entries) {
		tol[r] = clamp01(p.ToleratedIntensity(cluster.Resource(r)))
		e.axes[AxisTolerated].feedback(row, r, tol[r])
	}
	caused := make(map[int]float64, entries)
	for _, r := range pickDistinct(rng, int(cluster.NumResources), entries) {
		caused[r] = clamp01(p.CausedIntensity(cluster.Resource(r)))
		e.axes[AxisCaused].feedback(row, r, caused[r])
	}
	po := &ProbeObs{RefPerf: refPerf}
	po.obs[AxisScaleUp] = su
	po.obs[AxisScaleOut] = so
	po.obs[AxisHetero] = het
	po.obs[AxisTolerated] = tol
	po.obs[AxisCaused] = caused
	return e.estimatesFromProbe(w, row, po)
}

// Feedback updates one matrix entry with a runtime-observed value (the
// paper's feedback loop that corrects misclassifications and extends the
// matrices past profiling scale, §3.2).
func (e *Engine) Feedback(id string, axis Axis, col int, value float64) {
	t0 := e.prof.Begin()
	defer e.prof.End(prof.SubClassify, t0)
	row, ok := e.rowOf[id]
	if !ok || axis < 0 || axis >= numAxes {
		return
	}
	if axis == AxisScaleUp || axis == AxisScaleOut || axis == AxisHetero {
		value = safeLog(value)
	} else {
		value = clamp01(value)
	}
	e.axes[axis].feedback(row, col, value)
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
