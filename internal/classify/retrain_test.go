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

// referenceAxis is the axis written the plain way: every retrain point trains
// from a fresh freeze of the live matrix — an append's cold, a feedback
// point's seeded from the model before it — and runtime feedback is counted
// once per row per retrain interval with a set of the rows counted since the
// last retrain point, emptied there — the rule axis keeps with a per-row
// interval stamp and a re-used freeze buffer. It is compared with axis over
// arbitrary interleavings of writes and reads.
type referenceAxis struct {
	mat        *cf.Sparse
	model      *cf.Model
	sinceTrain int
	fed        map[int]bool // rows whose feedback was counted since the last retrain point
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
		a.train(nil)
	}
	return idx
}

func (a *referenceAxis) train(seed *cf.Model) {
	a.model = cf.TrainFrozenFrom(a.mat.Freeze(nil), a.cfOpts, seed)
	a.sinceTrain = 0
	a.fed = nil
}

func (a *referenceAxis) estimateRow(rowIdx int, obs map[int]float64) []float64 {
	merged := make(map[int]float64, len(obs)+4)
	if rowIdx >= 0 && rowIdx < a.mat.Rows {
		for _, c := range a.mat.Row(rowIdx) {
			merged[int(c.Col)] = c.V
		}
	}
	for j, v := range obs {
		merged[j] = v
	}
	row := make([]float64, a.mat.Cols) // no model yet: the observations are the row
	if a.model != nil {
		row = a.model.FoldIn(merged)
	}
	for j, v := range merged {
		if j >= 0 && j < len(row) {
			row[j] = v
		}
	}
	return row
}

func (a *referenceAxis) feedback(row, col int, v float64, oncePerRow bool) {
	if row < 0 || row >= a.mat.Rows {
		return
	}
	a.mat.Set(row, col, v)
	if oncePerRow {
		if a.fed[row] {
			return
		}
		if a.fed == nil {
			a.fed = map[int]bool{}
		}
		a.fed[row] = true
	}
	a.sinceTrain++
	if a.sinceTrain >= a.retrainThreshold() {
		a.train(a.model)
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

// TestAxisMatchesEagerReference drives an axis and the reference with the
// same random appends, feedback entries and estimates, at retrain thresholds
// small enough that several retrain points fall between two reads: every
// estimated row, every change count and the model after every step must be
// bit-equal.
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
					g := got.appendUnfitted(obs)
					if got.unfitted {
						got.fit(nil)
					}
					if w := want.appendRow(obs); g != w {
						t.Fatalf("%s: appended row %d, reference %d", name, g, w)
					}
				case k < 8: // a burst on one row, counted per cell or once per row
					row, oncePerRow := rng.Intn(got.mat.Rows+2)-1, rng.Intn(2) == 0
					for n := 1 + rng.Intn(4); n > 0; n-- {
						col, v := rng.Intn(cols), rng.NormFloat64()
						got.feedback(row, col, v, oncePerRow)
						want.feedback(row, col, v, oncePerRow)
					}
				default:
					row, obs := rng.Intn(got.mat.Rows+2)-1, randObs(rng.Intn(3))
					if g, w := got.estimateRow(row, obs), want.estimateRow(row, obs); !bitsEqual(g, w) {
						t.Fatalf("%s: estimated row differs from the reference\n got %v\nwant %v", name, g, w)
					}
				}
				if got.sinceTrain != want.sinceTrain {
					t.Fatalf("%s: sinceTrain %d, reference %d", name, got.sinceTrain, want.sinceTrain)
				}
				if !modelsBitEqual(got.model, want.model) {
					t.Fatalf("%s: model differs from the reference", name)
				}
			}
		}
	}
}

// randomOpsRun drives a fresh engine through a seeded random op sequence —
// the ops, their arguments and the probers' noise depend on the seed only —
// calling afterOp when each op returns.
func randomOpsRun(t *testing.T, seed int64, nOps int, afterOp func(*Engine)) {
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
	fresh := func() (*workload.Instance, *GroundTruthProber) {
		w := u.New(workload.Spec{Type: workload.Type(rng.Intn(int(workload.NumTypes))), Family: -1, MaxNodes: 4})
		probes++
		return w, NewGroundTruthProber(w, platforms, sim.NewRNG(seed*1000+int64(probes)))
	}
	for op := 0; op < nOps; op++ {
		switch k := rng.Intn(100); {
		case op == 0 || k < 4: // offline library batch
			n := 1 + rng.Intn(3)
			ws, ps := make([]*workload.Instance, n), make([]*GroundTruthProber, n)
			for i := range ws {
				ws[i], ps[i] = fresh()
			}
			e.SeedOfflineMany(ws, ps)
			known = append(known, ws...)
		case k < 14:
			w, p := fresh()
			e.Classify(w, p)
			known = append(known, w)
		case k < 74: // bursts of feedback on one row, on every axis, plus the ids and axes it must ignore
			id := "no-such-workload"
			if rng.Intn(20) > 0 {
				id = known[rng.Intn(len(known))].ID
			}
			for n := 1 + rng.Intn(4); n > 0; n-- {
				axis := Axis(rng.Intn(int(numAxes)+2) - 1)
				col := 0
				if axis >= 0 && axis < numAxes {
					col = rng.Intn(e.axes[axis].mat.Cols)
				}
				e.Feedback(id, axis, col, math.Exp(rng.NormFloat64()))
			}
		case k < 82: // a known workload, or an unknown one (which classifies)
			w := known[rng.Intn(len(known))]
			if rng.Intn(8) == 0 {
				w, _ = fresh()
				known = append(known, w)
			}
			probes++
			e.Reclassify(w, NewGroundTruthProber(w, platforms, sim.NewRNG(seed*1000+int64(probes))))
		case k < 90: // detached batch: fan out read-only, append in order
			n := 1 + rng.Intn(4)
			ws, ps, rngs := make([]*workload.Instance, n), make([]Prober, n), make([]*sim.RNG, n)
			for i := range ws {
				ws[i], ps[i] = fresh()
				rngs[i] = sim.NewRNG(seed*7919 + int64(probes))
			}
			pos := par.ParMap(n, func(i int) *ProbeObs {
				_, po := e.ClassifyDetached(ws[i], ps[i], rngs[i])
				return po
			})
			for i, po := range pos {
				e.Append(ws[i].ID, po)
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
}

// TestRandomOpsKeepEveryAxisFitted: over a random op sequence touching every
// entry point, every axis with rows has a model whenever an op returns. This
// is what lets a detached read fold in without fitting first, and
// EnsureTrained do nothing.
func TestRandomOpsKeepEveryAxisFitted(t *testing.T) {
	t.Parallel()
	seeds, nOps := []int64{1, 2}, 400
	if testing.Short() {
		seeds, nOps = seeds[:1], 200
	}
	for _, seed := range seeds {
		op := 0
		randomOpsRun(t, seed, nOps, func(e *Engine) {
			op++
			for i, a := range e.axes {
				if a.mat.Rows > 0 && a.model == nil {
					t.Fatalf("seed %d, after op %d: the %s axis has %d rows and no model", seed, op, Axis(i), a.mat.Rows)
				}
			}
		})
	}
}

// TestDetachedReadWritesNothing: ClassifyDetached only reads the engine.
// Concurrent detached reads (this test is meant for -race too) leave every
// axis's model, matrix and counters as they were, and an engine with no rows
// returns the observations themselves as the row.
func TestDetachedReadWritesNothing(t *testing.T) {
	e, u := testSetup(t, 2)
	type axisState struct {
		model     *cf.Model
		rows, nnz int
		stats     AxisTrainStats
	}
	state := func(e *Engine) (s [numAxes]axisState) {
		for i, a := range e.axes {
			s[i] = axisState{a.model, a.mat.Rows, a.mat.NNZ(), a.stats}
		}
		return s
	}
	before := state(e)
	ws := make([]*workload.Instance, 8)
	for i := range ws {
		ws[i] = u.New(workload.Spec{Type: workload.Spark, Family: -1, MaxNodes: 4})
	}
	withDefaultWorkers(4, func() {
		par.ParMap(len(ws), func(i int) *Estimates {
			es, _ := e.ClassifyDetached(ws[i], NewGroundTruthProber(ws[i], e.Platforms, sim.NewRNG(int64(10+i))), sim.NewRNG(int64(20+i)))
			return es
		})
	})
	if after := state(e); after != before {
		t.Fatalf("detached reads changed the engine:\nbefore %+v\nafter  %+v", before, after)
	}

	empty := NewEngine(e.Platforms, e.opts, sim.NewRNG(1))
	emptyBefore := state(empty)
	es, po := empty.ClassifyDetached(ws[0], NewGroundTruthProber(ws[0], e.Platforms, sim.NewRNG(3)), sim.NewRNG(4))
	if after := state(empty); after != emptyBefore {
		t.Fatalf("a detached read changed an empty engine: %+v", after)
	}
	for _, c := range []struct {
		axis Axis
		row  []float64
	}{{AxisScaleUp, es.SULog}, {AxisScaleOut, es.SOLog}, {AxisHetero, es.HetLog}} {
		obs := po.obs[c.axis]
		for j, v := range c.row {
			if want := obs[j]; math.Float64bits(v) != math.Float64bits(want) {
				t.Fatalf("%s column %d of an empty engine's estimate: %v, want the observation %v", c.axis, j, v, want)
			}
		}
	}
}

// TestColdRetrainPointsFitLikeTrainFrozen: the retrain points that fit cold
// — RetrainAll, LoadSnapshot and an append — leave every axis they fit with
// exactly cf.TrainFrozen's model of the same freeze, even when the model
// before them was a warm feedback fit.
func TestColdRetrainPointsFitLikeTrainFrozen(t *testing.T) {
	e, u := testSetup(t, 2)
	ws, _ := classifyFresh(e, u, 8)
	// warmUp feeds scale-up cells back until the axis has refitted warm.
	su := e.axes[AxisScaleUp]
	warmUp := func() {
		t.Helper()
		for i, fits := 0, su.stats.WarmFits; su.stats.WarmFits == fits; i++ {
			if i > 10*su.retrainThreshold() {
				t.Fatal("feedback never reached a warm retrain point")
			}
			w := ws[i%len(ws)]
			e.Reclassify(w, NewGroundTruthProber(w, e.Platforms, sim.NewRNG(int64(100+i))))
		}
		if !su.model.Warm {
			t.Fatal("the scale-up model after a feedback retrain point is not warm")
		}
	}
	coldEverywhere := func(what string, axes []*axis) {
		t.Helper()
		for _, a := range axes {
			want := cf.TrainFrozen(a.mat.Freeze(nil), a.cfOpts)
			if a.model.Warm || !modelsBitEqual(a.model, want) {
				t.Fatalf("%s: axis %s is not cf.TrainFrozen of its matrix (warm %v)", what, a.name, a.model.Warm)
			}
		}
	}

	warmUp()
	e.RetrainAll()
	coldEverywhere("RetrainAll", e.axes[:])

	warmUp()
	data, err := e.MarshalSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := e.UnmarshalSnapshot(data); err != nil {
		t.Fatal(err)
	}
	coldEverywhere("LoadSnapshot", e.axes[:])

	warmUp()
	for fits := su.stats.Fits; su.stats.Fits == fits; {
		w := u.New(workload.Spec{Type: workload.SingleNode, Family: -1, MaxNodes: 1})
		e.Classify(w, NewGroundTruthProber(w, e.Platforms, sim.NewRNG(7)))
	}
	coldEverywhere("append", []*axis{su})
}
