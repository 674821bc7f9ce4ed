package classify

import (
	"fmt"
	"math"
	"testing"

	"quasar/internal/cf"
	"quasar/internal/cluster"
	"quasar/internal/par"
	"quasar/internal/sim"
	"quasar/internal/workload"
)

// referenceAppendObs is appendObs as it was before batch appends, written
// out in full: each row is appended to every axis, and a retrain point
// freezes, fits on the spot and opens the next interval.
func referenceAppendObs(e *Engine, id string, po *ProbeObs) int {
	for i, a := range e.axes {
		a.mat.AppendRow(po.obs[i])
		a.sinceTrain++
		if a.model == nil || a.sinceTrain >= a.retrainThreshold() {
			a.frozen = a.mat.Freeze(a.frozen)
			a.model = cf.TrainFrozen(a.frozen, a.cfOpts)
			a.sinceTrain = 0
			a.interval++
		}
	}
	row := e.axes[AxisScaleUp].mat.Rows - 1
	e.rowOf[id] = row
	return row
}

// referenceSeed is the seeding loop the batch replaces: probe one workload,
// append its row, next.
func referenceSeed(e *Engine, ws []*workload.Instance, probers []*GroundTruthProber) {
	for i, w := range ws {
		referenceAppendObs(e, w.ID, e.probeSeed(w, probers[i]))
	}
}

// referenceValidateMany is ValidateMany with its observations appended one
// row at a time, classifying sequentially.
func referenceValidateMany(e *Engine, ws []*workload.Instance) ValidationErrors {
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
	results := make([]result, len(ws))
	for i, w := range ws {
		es, po := e.ClassifyDetached(w, NewGroundTruthProber(w, e.Platforms, probeRNGs[i]), classifyRNGs[i])
		results[i] = result{po, CompareToTruth(es, w, NewGroundTruthProber(w, e.Platforms, nil))}
	}
	var pooled ValidationErrors
	for i, r := range results {
		referenceAppendObs(e, ws[i].ID, r.po)
		pooled.ScaleUp = append(pooled.ScaleUp, r.errs.ScaleUp...)
		pooled.ScaleOut = append(pooled.ScaleOut, r.errs.ScaleOut...)
		pooled.Hetero = append(pooled.Hetero, r.errs.Hetero...)
		pooled.Interf = append(pooled.Interf, r.errs.Interf...)
	}
	return pooled
}

// batchFixture holds the workloads the batch tests append, and builds the
// engines they append to.
type batchFixture struct {
	platforms []cluster.Platform
	prep      []*workload.Instance // what a used engine has seen before the batch
	batch     []*workload.Instance // the batch, cycling the seven types
}

func newBatchFixture(maxBatch int) *batchFixture {
	platforms := cluster.LocalPlatforms()
	u := workload.NewUniverse(platforms, 13, 3)
	f := &batchFixture{platforms: platforms}
	for i := 0; i < 12; i++ {
		f.prep = append(f.prep, u.New(workload.Spec{Type: workload.Type(i % int(workload.NumTypes)), Family: -1, MaxNodes: 4}))
	}
	for i := 0; i < maxBatch; i++ {
		f.batch = append(f.batch, u.New(workload.Spec{Type: workload.Type(i % int(workload.NumTypes)), Family: -1, MaxNodes: 4}))
	}
	return f
}

// probers returns fresh probers for ws, whose noise depends only on the
// position and salt.
func (f *batchFixture) probers(ws []*workload.Instance, salt int64) []*GroundTruthProber {
	ps := make([]*GroundTruthProber, len(ws))
	for i, w := range ws {
		ps[i] = NewGroundTruthProber(w, f.platforms, sim.NewRNG(salt+int64(i)))
	}
	return ps
}

// engine returns a fresh engine, or, used, one that has been seeded, has
// classified arrivals one at a time, taken runtime feedback and re-profiled
// a workload, so that every axis is part-way through a retrain interval.
func (f *batchFixture) engine(used bool) *Engine {
	opts := DefaultOptions()
	opts.MaxNodes = 32
	e := NewEngine(f.platforms, opts, sim.NewRNG(99))
	if !used {
		return e
	}
	lib, arrivals := f.prep[:8], f.prep[8:]
	e.SeedOfflineMany(lib, f.probers(lib, 500))
	for i, w := range arrivals {
		e.Classify(w, NewGroundTruthProber(w, f.platforms, sim.NewRNG(int64(600+i))))
	}
	for i, w := range f.prep {
		e.Feedback(w.ID, Axis(i%int(numAxes)), i%3, 0.5+0.1*float64(i))
		e.Feedback(w.ID, AxisHetero, i%len(f.platforms), 1.5)
	}
	e.Reclassify(f.prep[2], NewGroundTruthProber(f.prep[2], f.platforms, sim.NewRNG(700)))
	return e
}

// engineDiff returns where two engines' classifier state differs, or "":
// every axis's model bit for bit, its counters and matrix, and the row map.
func engineDiff(got, want *Engine) string {
	for i := range got.axes {
		g, w := got.axes[i], want.axes[i]
		switch {
		case !modelsBitEqual(g.model, w.model):
			return fmt.Sprintf("%s axis: model differs", Axis(i))
		case g.model != nil && (g.model.K != w.model.K || g.model.Epochs != w.model.Epochs || g.model.Rose != w.model.Rose):
			return fmt.Sprintf("%s axis: model K/Epochs/Rose %d/%d/%v, want %d/%d/%v", Axis(i),
				g.model.K, g.model.Epochs, g.model.Rose, w.model.K, w.model.Epochs, w.model.Rose)
		case g.sinceTrain != w.sinceTrain || g.interval != w.interval:
			return fmt.Sprintf("%s axis: sinceTrain %d interval %d, want %d %d", Axis(i), g.sinceTrain, g.interval, w.sinceTrain, w.interval)
		case g.unfitted:
			return fmt.Sprintf("%s axis: left a retrain point unfitted", Axis(i))
		}
		if d := sparseDiff(g.mat, w.mat); d != "" {
			return fmt.Sprintf("%s axis: %s", Axis(i), d)
		}
	}
	if len(got.rowOf) != len(want.rowOf) {
		return fmt.Sprintf("rowOf has %d entries, want %d", len(got.rowOf), len(want.rowOf))
	}
	for id, r := range want.rowOf {
		if g, ok := got.rowOf[id]; !ok || g != r {
			return fmt.Sprintf("rowOf[%s] = %d, %v; want %d", id, g, ok, r)
		}
	}
	return ""
}

func sparseDiff(got, want *cf.Sparse) string {
	if got.Rows != want.Rows || got.Cols != want.Cols || got.NNZ() != want.NNZ() {
		return fmt.Sprintf("matrix %dx%d with %d entries, want %dx%d with %d",
			got.Rows, got.Cols, got.NNZ(), want.Rows, want.Cols, want.NNZ())
	}
	for r := 0; r < got.Rows; r++ {
		g, w := got.Row(r), want.Row(r)
		if len(g) != len(w) {
			return fmt.Sprintf("row %d has %d entries, want %d", r, len(g), len(w))
		}
		for k := range g {
			if g[k].Col != w[k].Col || math.Float64bits(g[k].V) != math.Float64bits(w[k].V) {
				return fmt.Sprintf("row %d entry %d is %v, want %v", r, k, g[k], w[k])
			}
		}
	}
	return ""
}

// batchSizes are the library sizes the equivalence tests append: none, one
// and two rows; each side of the retrain points a fresh engine reaches at
// rows 1, 26, 51 and 76; the 84-row ledger library; and past 125 rows, where
// the threshold follows rows/5.
var batchSizes = []int{0, 1, 2, 25, 26, 27, 51, 76, 84, 130, 300}

// testBatchSizes returns batchSizes, less the sizes past the 84-row library
// under -short: the race lane still covers every retrain point a fresh
// engine reaches and the probing fan-out, and the plain lane covers them all.
func testBatchSizes() []int {
	if testing.Short() {
		return batchSizes[:len(batchSizes)-2]
	}
	return batchSizes
}

// withDefaultWorkers runs fn with the worker pool's default size set to n.
func withDefaultWorkers(n int, fn func()) {
	par.SetDefaultWorkers(n)
	defer par.SetDefaultWorkers(0)
	fn()
}

// TestSeedBatchMatchesPerRowReference: seeding a library as one batch leaves
// every axis's model, counters and matrix, and the row map, bit-equal to
// appending and fitting one row at a time, on a fresh engine and on a used
// one, whatever the probing fan-out's worker count.
func TestSeedBatchMatchesPerRowReference(t *testing.T) {
	sizes := testBatchSizes()
	f := newBatchFixture(sizes[len(sizes)-1])
	for _, used := range []bool{false, true} {
		for _, n := range sizes {
			ws := f.batch[:n]
			want := f.engine(used)
			referenceSeed(want, ws, f.probers(ws, 1000))
			for _, workers := range []int{1, 4} {
				got := f.engine(used)
				withDefaultWorkers(workers, func() { got.SeedOfflineMany(ws, f.probers(ws, 1000)) })
				if d := engineDiff(got, want); d != "" {
					t.Errorf("used=%v rows=%d workers=%d: %s", used, n, workers, d)
				}
			}
		}
	}
}

// TestValidateManyMatchesPerRowReference: ValidateMany's pooled errors and
// resulting engine are bit-equal to appending its observations one row at a
// time.
func TestValidateManyMatchesPerRowReference(t *testing.T) {
	sizes := testBatchSizes()
	f := newBatchFixture(sizes[len(sizes)-1])
	for _, used := range []bool{false, true} {
		for _, n := range sizes {
			ws := f.batch[:n]
			want := f.engine(used)
			wantErrs := referenceValidateMany(want, ws)
			for _, workers := range []int{1, 4} {
				name := fmt.Sprintf("used=%v rows=%d workers=%d", used, n, workers)
				got := f.engine(used)
				var gotErrs ValidationErrors
				withDefaultWorkers(workers, func() { gotErrs = ValidateMany(got, ws) })
				if d := engineDiff(got, want); d != "" {
					t.Errorf("%s: %s", name, d)
				}
				if !bitsEqual(gotErrs.ScaleUp, wantErrs.ScaleUp) || !bitsEqual(gotErrs.ScaleOut, wantErrs.ScaleOut) ||
					!bitsEqual(gotErrs.Hetero, wantErrs.Hetero) || !bitsEqual(gotErrs.Interf, wantErrs.Interf) {
					t.Errorf("%s: validation errors differ", name)
				}
			}
		}
	}
}

// referenceExhaustiveSeed is library seeding as the exhaustive classifier
// did it before it was built on axis: append every row uncounted, then fit
// cold once.
func referenceExhaustiveSeed(x *Exhaustive, ws []*workload.Instance, probers []*GroundTruthProber) {
	for i, w := range ws {
		obs := make(map[int]float64, len(x.Cols))
		for j, col := range x.Cols {
			if col.Nodes > 1 && !w.Type.Distributed() {
				continue
			}
			obs[j] = safeLog(probers[i].JointPerf(col.PlatformIdx, col.Nodes, col.Alloc(x.Platforms)))
		}
		x.ax.mat.AppendRow(obs)
	}
	if len(ws) > 0 {
		x.ax.model = cf.TrainFrozen(x.ax.mat.Freeze(nil), x.ax.cfOpts)
		x.ax.sinceTrain = 0
	}
}

// referenceValidateExhaustiveMany is ValidateExhaustiveMany with its
// observations appended one row at a time: append, and at a retrain point
// fit cold on the spot.
func referenceValidateExhaustiveMany(x *Exhaustive, ws []*workload.Instance, noisy []*GroundTruthProber, entries int) []float64 {
	a := x.ax
	var pending []map[int]float64
	var errs []float64
	for i, w := range ws {
		obs := x.probe(w, noisy[i], entries, x.rng.Stream("exhaustive/"+w.ID))
		errs = append(errs, compareExhaustive(x, w, a.estimateRow(-1, obs))...)
		pending = append(pending, obs)
	}
	for _, obs := range pending {
		a.mat.AppendRow(obs)
		a.sinceTrain++
		if a.model == nil || a.sinceTrain >= a.retrainThreshold() {
			a.model = cf.TrainFrozen(a.mat.Freeze(nil), a.cfOpts)
			a.sinceTrain = 0
		}
	}
	return errs
}

// TestExhaustiveMatchesPerRowReference: the exhaustive classifier, seeded as
// one batch and validating batch after batch, gives the errors and ends with
// the model, counter and matrix of appending and fitting one row at a time,
// with and without a library and for 1 and 4 workers. The batches follow
// Table 2's shape: the third reaches a retrain point part-way, and the
// fourth passes two and fits once. Outside -short a fifth carries the
// matrix past 125 rows, where the threshold follows rows/5.
func TestExhaustiveMatchesPerRowReference(t *testing.T) {
	batches := []int{10, 10, 10, 60}
	if !testing.Short() {
		batches = append(batches, 100)
	}
	total := 0
	for _, n := range batches {
		total += n
	}
	f := newBatchFixture(total)
	build := func() *Exhaustive {
		return NewExhaustive(f.platforms, 8, DefaultOptions().CF, sim.NewRNG(5))
	}
	for _, lib := range []int{0, 8} {
		libWs := f.prep[:lib]
		want := build()
		referenceExhaustiveSeed(want, libWs, f.probers(libWs, 500))
		var wantErrs [][]float64
		for b, first := 0, 0; b < len(batches); first, b = first+batches[b], b+1 {
			ws := f.batch[first : first+batches[b]]
			wantErrs = append(wantErrs, referenceValidateExhaustiveMany(want, ws, f.probers(ws, 1000), 8))
		}
		for _, workers := range []int{1, 4} {
			name := fmt.Sprintf("library=%d workers=%d", lib, workers)
			got := build()
			got.SeedMany(libWs, f.probers(libWs, 500))
			for b, first := 0, 0; b < len(batches); first, b = first+batches[b], b+1 {
				ws := f.batch[first : first+batches[b]]
				fits := got.ax.stats.Fits
				var errs []float64
				withDefaultWorkers(workers, func() { errs = ValidateExhaustiveMany(got, ws, f.probers(ws, 1000), 8) })
				if !bitsEqual(errs, wantErrs[b]) {
					t.Errorf("%s: batch %d: errors differ", name, b)
				}
				if b == 3 && got.ax.stats.Fits != fits+1 {
					t.Errorf("%s: batch %d passed two retrain points and fitted %d times, want once",
						name, b, got.ax.stats.Fits-fits)
				}
			}
			g, w := got.ax, want.ax
			switch {
			case !modelsBitEqual(g.model, w.model):
				t.Errorf("%s: model differs", name)
			case g.sinceTrain != w.sinceTrain || g.unfitted:
				t.Errorf("%s: sinceTrain %d unfitted %v, want %d false", name, g.sinceTrain, g.unfitted, w.sinceTrain)
			}
			if d := sparseDiff(g.mat, w.mat); d != "" {
				t.Errorf("%s: %s", name, d)
			}
		}
	}
}
