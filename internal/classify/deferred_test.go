package classify

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"quasar/internal/cf"
	"quasar/internal/cluster"
	"quasar/internal/par"
	"quasar/internal/sim"
	"quasar/internal/workload"
)

// The deferred fit must change nothing a caller can observe. Two oracles
// say so.
//
// referenceAxis is the axis as it was before fits were deferred, kept
// verbatim: every retrain point trains on the spot, from the live matrix.
// It is compared with axis over arbitrary interleavings of writes and reads.
//
// forceFits turns a whole Engine into that eager engine from outside: called
// after every engine op, it fits whatever retrain point the op left pending.
// Inside one op every write to an axis precedes the op's read of that axis
// (Classify appends, then estimates; Reclassify feeds back, then estimates),
// so fitting when the op returns hands every later read the model an
// on-the-spot fit would have — while the engine under test, left alone, fits
// only when it is read.
//
// A live simulated day is held to the same claim from outside the package:
// experiments.TestSimulatedDayUnchangedByEarlyFits.

type referenceAxis struct {
	mat        *cf.Sparse
	model      *cf.Model
	sinceTrain int
	cfOpts     cf.Options
	retrain    int
}

func (a *referenceAxis) retrainThreshold() int {
	th := a.retrain
	if grow := a.mat.Rows / 5; grow > th {
		th = grow
	}
	return th
}

func (a *referenceAxis) appendRow(obs map[int]float64) int {
	idx := a.mat.AppendRow(obs)
	a.sinceTrain++
	if a.model == nil || a.sinceTrain >= a.retrainThreshold() {
		a.train()
	}
	return idx
}

func (a *referenceAxis) train() {
	a.model = cf.Train(a.mat, a.cfOpts)
	a.sinceTrain = 0
}

func (a *referenceAxis) estimateRow(rowIdx int, obs map[int]float64) []float64 {
	if a.model == nil {
		a.train()
	}
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

func (a *referenceAxis) feedback(row, col int, v float64) {
	if row < 0 || row >= a.mat.Rows {
		return
	}
	a.mat.Set(row, col, v)
	a.sinceTrain++
	if a.sinceTrain >= a.retrainThreshold() {
		a.train()
	}
}

func forceFits(e *Engine) {
	for _, a := range e.axes {
		a.fit()
	}
}

func bitsEqual(x, y []float64) bool {
	if len(x) != len(y) {
		return false
	}
	for i := range x {
		if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
			return false
		}
	}
	return true
}

// modelsBitEqual follows cf/reference_test.go's helper of the same name.
func modelsBitEqual(a, b *cf.Model) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.K == b.K && math.Float64bits(a.Mu) == math.Float64bits(b.Mu) &&
		bitsEqual(a.BU, b.BU) && bitsEqual(a.BI, b.BI) && bitsEqual(a.P.Data, b.P.Data) && bitsEqual(a.Q.Data, b.Q.Data)
}

// estimateFloats flattens everything a caller can read off an Estimates.
func estimateFloats(es *Estimates) []float64 {
	out := []float64{float64(es.Row), es.RefPerf, es.Beta()}
	out = append(out, es.SULog...)
	out = append(out, es.SOLog...)
	out = append(out, es.HetLog...)
	out = append(out, es.Tol[:]...)
	return append(out, es.Caused[:]...)
}

// TestAxisMatchesEagerReference drives an axis and the eager reference with
// the same random appends, feedback entries and estimates, at retrain
// thresholds small enough that several retrain points pile up between two
// reads: every estimated row and the final model must be bit-equal, and a
// retrain point that was overwritten must never have been fitted.
func TestAxisMatchesEagerReference(t *testing.T) {
	const cols = 9
	opts := cf.DefaultOptions()
	opts.Epochs = 40
	for _, retrain := range []int{1, 2, 5} {
		for seed := int64(1); seed <= 4; seed++ {
			rng := rand.New(rand.NewSource(seed))
			got := newAxis("test", cols, opts, retrain)
			want := &referenceAxis{mat: cf.NewSparse(0, cols), cfOpts: opts, retrain: retrain}
			randObs := func(n int) map[int]float64 {
				obs := make(map[int]float64, n)
				for len(obs) < n {
					obs[rng.Intn(cols)] = rng.NormFloat64()
				}
				return obs
			}
			for step := 0; step < 400; step++ {
				name := fmt.Sprintf("retrain=%d seed=%d step=%d", retrain, seed, step)
				switch k := rng.Intn(10); {
				case k < 2:
					obs := randObs(1 + rng.Intn(4))
					if g, w := got.appendRow(obs), want.appendRow(obs); g != w {
						t.Fatalf("%s: appended row %d, reference %d", name, g, w)
					}
				case k < 8:
					row, col, v := rng.Intn(got.mat.Rows+2)-1, rng.Intn(cols), rng.NormFloat64()
					got.feedback(row, col, v)
					want.feedback(row, col, v)
				default:
					row, obs := rng.Intn(got.mat.Rows+2)-1, randObs(rng.Intn(3))
					if g, w := got.estimateRow(row, obs), want.estimateRow(row, obs); !bitsEqual(g, w) {
						t.Fatalf("%s: estimated row differs from the eager reference\n got %v\nwant %v", name, g, w)
					}
					if !modelsBitEqual(got.model, want.model) {
						t.Fatalf("%s: model after a read differs from the eager reference", name)
					}
				}
				if got.sinceTrain != want.sinceTrain {
					t.Fatalf("%s: sinceTrain %d, reference %d", name, got.sinceTrain, want.sinceTrain)
				}
			}
			got.fit()
			if !modelsBitEqual(got.model, want.model) {
				t.Fatalf("retrain=%d seed=%d: final model differs from the eager reference", retrain, seed)
			}
			if st := got.stats; st.Fits >= st.Points {
				t.Fatalf("retrain=%d seed=%d: stats %+v: want fewer fits than retrain points", retrain, seed, st)
			}
		}
	}
}

// randomOpsRun drives a fresh engine through a seeded random op sequence —
// the ops, their arguments and the probers' noise depend on the seed only —
// calling afterOp when each op returns. It returns every Estimates an op
// handed back, flattened, and the engine.
func randomOpsRun(t *testing.T, seed int64, nOps int, afterOp func(*Engine)) ([][]float64, *Engine) {
	t.Helper()
	platforms := cluster.LocalPlatforms()
	u := workload.NewUniverse(platforms, seed, 3)
	opts := DefaultOptions()
	opts.MaxNodes = 32
	opts.Entries = 3
	opts.RetrainEvery = 3 // many retrain points, several of them between two reads
	opts.CF.Epochs = 30
	e := NewEngine(platforms, opts, sim.NewRNG(seed+1))
	rng := rand.New(rand.NewSource(seed + 2))

	var known []*workload.Instance
	probes := 0
	fresh := func() (*workload.Instance, Prober) {
		w := u.New(workload.Spec{Type: workload.Type(rng.Intn(int(workload.NumTypes))), Family: -1, MaxNodes: 4})
		probes++
		return w, NewGroundTruthProber(w, platforms, sim.NewRNG(seed*1000+int64(probes)))
	}
	var out [][]float64
	for op := 0; op < nOps; op++ {
		switch k := rng.Intn(100); {
		case op == 0 || k < 4: // offline library batch
			n := 1 + rng.Intn(3)
			ws, ps := make([]*workload.Instance, n), make([]Prober, n)
			for i := range ws {
				ws[i], ps[i] = fresh()
			}
			e.SeedOfflineMany(ws, ps)
			known = append(known, ws...)
		case k < 14:
			w, p := fresh()
			out = append(out, estimateFloats(e.Classify(w, p)))
			known = append(known, w)
		case k < 74: // feedback on every axis, plus the ids and axes it must ignore
			id := "no-such-workload"
			if rng.Intn(20) > 0 {
				id = known[rng.Intn(len(known))].ID
			}
			axis := Axis(rng.Intn(int(numAxes)+2) - 1)
			col := 0
			if axis >= 0 && axis < numAxes {
				col = rng.Intn(e.axes[axis].mat.Cols)
			}
			e.Feedback(id, axis, col, math.Exp(rng.NormFloat64()))
		case k < 82: // a known workload, or an unknown one (which classifies)
			w := known[rng.Intn(len(known))]
			if rng.Intn(8) == 0 {
				w, _ = fresh()
				known = append(known, w)
			}
			probes++
			out = append(out, estimateFloats(e.Reclassify(w, NewGroundTruthProber(w, platforms, sim.NewRNG(seed*1000+int64(probes))))))
		case k < 90: // detached batch: settle, fan out read-only, append in order
			n := 1 + rng.Intn(4)
			ws, ps, rngs := make([]*workload.Instance, n), make([]Prober, n), make([]*sim.RNG, n)
			for i := range ws {
				ws[i], ps[i] = fresh()
				rngs[i] = sim.NewRNG(seed*7919 + int64(probes))
			}
			e.EnsureTrained()
			type detached struct {
				es *Estimates
				po *ProbeObs
			}
			res := par.ParMap(0, n, func(i int) detached {
				es, po := e.ClassifyDetached(ws[i], ps[i], rngs[i])
				return detached{es, po}
			})
			for i, r := range res {
				r.es.Row = e.Append(ws[i].ID, r.po)
				out = append(out, estimateFloats(r.es))
			}
			known = append(known, ws...)
		case k < 95:
			data, err := e.MarshalSnapshot()
			if err != nil {
				t.Fatal(err)
			}
			if err := e.UnmarshalSnapshot(data); err != nil {
				t.Fatal(err)
			}
		default:
			e.RetrainAll()
		}
		afterOp(e)
	}
	return out, e
}

// TestDeferredFitMatchesEagerOnRandomOps: over a random op sequence touching
// every entry point, the engine that fits on read returns bit-for-bit the
// Estimates of the engine forced to fit at every retrain point, and ends with
// the same five models.
func TestDeferredFitMatchesEagerOnRandomOps(t *testing.T) {
	t.Parallel()
	seeds, nOps := []int64{1, 2}, 400
	if testing.Short() {
		seeds, nOps = seeds[:1], 200
	}
	for _, seed := range seeds {
		wantOut, eager := randomOpsRun(t, seed, nOps, forceFits)
		eager.EnsureTrained()
		gotOut, deferred := randomOpsRun(t, seed, nOps, func(*Engine) {})
		compareRuns(t, fmt.Sprintf("seed %d", seed), gotOut, wantOut, deferred, eager)
	}
}

// compareRuns checks a deferred run against the eager oracle's: every
// returned estimate, every final model, and the counters — the same retrain
// points, no more fits than the oracle, and some point never fitted at all.
func compareRuns(t *testing.T, name string, gotOut, wantOut [][]float64, deferred, eager *Engine) {
	t.Helper()
	if len(gotOut) != len(wantOut) {
		t.Fatalf("%s: %d estimates, eager oracle %d", name, len(gotOut), len(wantOut))
	}
	for i := range gotOut {
		if !bitsEqual(gotOut[i], wantOut[i]) {
			t.Fatalf("%s: estimate %d differs from the eager oracle's", name, i)
		}
	}
	deferred.EnsureTrained()
	elided := 0
	for i, a := range deferred.axes {
		if !modelsBitEqual(a.model, eager.axes[i].model) {
			t.Errorf("%s: final %s model differs from the eager oracle's", name, Axis(i))
		}
		st, est := a.stats, eager.axes[i].stats
		if st.Points != est.Points || st.Fits > est.Fits {
			t.Errorf("%s: %s stats %+v, eager %+v: want the same retrain points and no more fits than eager",
				name, Axis(i), st, est)
		}
		elided += st.Points - st.Fits // nothing is pending after EnsureTrained
	}
	if elided == 0 {
		t.Errorf("%s: no retrain point was elided — the run never exercised the deferral", name)
	}
}

// TestDetachedReadNeverFits pins ClassifyDetached's contract at its edge: with
// a retrain point pending and no EnsureTrained, the read-only path neither
// trains nor fits — it folds in against the model as last fitted — and
// EnsureTrained then resolves the pending point.
func TestDetachedReadNeverFits(t *testing.T) {
	e, u := testSetup(t, 2)
	w := u.New(workload.Spec{Type: workload.Hadoop, Family: -1, MaxNodes: 4})
	e.Classify(w, NewGroundTruthProber(w, e.Platforms, sim.NewRNG(5)))
	het := e.axes[AxisHetero]
	settled, fits := het.model, het.stats.Fits
	for i := 0; !het.pending; i++ {
		if i > 10*het.retrainThreshold() {
			t.Fatal("feedback never reached a retrain point")
		}
		e.Feedback(w.ID, AxisHetero, 3, 0.5+float64(i))
	}

	w2 := u.New(workload.Spec{Type: workload.Spark, Family: -1, MaxNodes: 4})
	stale, _ := e.ClassifyDetached(w2, NewGroundTruthProber(w2, e.Platforms, sim.NewRNG(6)), sim.NewRNG(7))
	if het.model != settled || !het.pending || het.stats.Fits != fits {
		t.Fatalf("a detached read touched the axis: model replaced %v, pending %v, fits %d → %d",
			het.model != settled, het.pending, fits, het.stats.Fits)
	}

	e.EnsureTrained()
	if het.pending || het.model == settled || het.stats.Fits != fits+1 {
		t.Fatalf("EnsureTrained left the retrain point unresolved: pending %v, fits %d → %d", het.pending, fits, het.stats.Fits)
	}
	// Same workload, same probes: only the model differs.
	fresh, _ := e.ClassifyDetached(w2, NewGroundTruthProber(w2, e.Platforms, sim.NewRNG(6)), sim.NewRNG(7))
	if bitsEqual(stale.HetLog, fresh.HetLog) {
		t.Fatal("the pending retrain point changed nothing — the stale read was not shown to be stale")
	}
}
