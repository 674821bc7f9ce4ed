package classify

import (
	"math"
	"math/rand"
	"testing"

	"quasar/internal/cluster"
	"quasar/internal/obs/prof"
	"quasar/internal/sim"
	"quasar/internal/workload"
)

func TestCorrectWithAdjustsHetero(t *testing.T) {
	e, u := testSetup(t, 2)
	w := u.New(workload.Spec{Type: workload.Hadoop, Family: -1, MaxNodes: 4})
	es := e.Classify(w, NewGroundTruthProber(w, e.Platforms, sim.NewRNG(5)))

	nodes := []NodeChoice{{PlatformIdx: 7,
		Alloc: cluster.Alloc{Cores: 12, MemoryGB: 24}}}
	est := es.JobPerf(nodes)
	before := es.HetLog[7]
	// Observe half the estimated performance: the platform estimate must
	// fall.
	c := es.CorrectWith(est*0.5, nodes)
	if c >= 1 {
		t.Fatalf("correction factor %v, want < 1", c)
	}
	if es.HetLog[7] >= before {
		t.Fatal("HetLog not reduced by negative feedback")
	}
	// And the engine matrix received the feedback.
	row, _ := e.RowOf(w.ID)
	if v, ok := e.axes[AxisHetero].mat.Get(row, 7); !ok {
		t.Fatal("feedback not written to the matrix")
	} else if math.Abs(v-es.HetLog[7]) > 1e-9 {
		t.Fatalf("matrix value %v != estimate %v", v, es.HetLog[7])
	}
}

func TestCorrectWithinNoiseBandIsNoop(t *testing.T) {
	e, u := testSetup(t, 2)
	w := u.New(workload.Spec{Type: workload.Hadoop, Family: -1, MaxNodes: 4})
	es := e.Classify(w, NewGroundTruthProber(w, e.Platforms, sim.NewRNG(5)))
	nodes := []NodeChoice{{PlatformIdx: 9, Alloc: cluster.Alloc{Cores: 24, MemoryGB: 48}}}
	est := es.JobPerf(nodes)
	before := es.HetLog[9]
	if c := es.CorrectWith(est*1.02, nodes); c != 1 {
		t.Fatalf("in-band correction applied: %v", c)
	}
	if es.HetLog[9] != before {
		t.Fatal("estimate changed inside the noise band")
	}
}

func TestCorrectWithClamps(t *testing.T) {
	e, u := testSetup(t, 2)
	w := u.New(workload.Spec{Type: workload.Hadoop, Family: -1, MaxNodes: 4})
	es := e.Classify(w, NewGroundTruthProber(w, e.Platforms, sim.NewRNG(5)))
	nodes := []NodeChoice{{PlatformIdx: 3, Alloc: cluster.Alloc{Cores: 8, MemoryGB: 16}}}
	est := es.JobPerf(nodes)
	if c := es.CorrectWith(est*100, nodes); c > 4 {
		t.Fatalf("correction not clamped: %v", c)
	}
	if c := es.CorrectWith(est*1e-6, nodes); c < 0.25 {
		t.Fatalf("correction not clamped low: %v", c)
	}
	// Degenerate inputs are no-ops.
	if c := es.CorrectWith(0, nodes); c != 1 {
		t.Fatal("zero measurement should be ignored")
	}
	if c := es.CorrectWith(10, nil); c != 1 {
		t.Fatal("empty assignment should be ignored")
	}
}

func TestRetrainAllAndExhaustiveRetrain(t *testing.T) {
	e, u := testSetup(t, 2)
	e.RetrainAll() // must not panic and must leave models usable
	w := u.New(workload.Spec{Type: workload.Hadoop, Family: -1, MaxNodes: 4})
	es := e.Classify(w, NewGroundTruthProber(w, e.Platforms, sim.NewRNG(6)))
	if es == nil {
		t.Fatal("classify failed after retrain")
	}

	x := NewExhaustive(e.Platforms, 8, DefaultOptions().CF, sim.NewRNG(7))
	w2 := u.New(workload.Spec{Type: workload.Hadoop, Family: -1, MaxNodes: 4})
	x.Seed(w2, NewGroundTruthProber(w2, e.Platforms, sim.NewRNG(8)))
	x.Retrain()
	w3 := u.New(workload.Spec{Type: workload.Hadoop, Family: -1, MaxNodes: 4})
	row := x.Classify(w3, NewGroundTruthProber(w3, e.Platforms, sim.NewRNG(9)), 4)
	if len(row) != x.NumColumns() {
		t.Fatal("classification after retrain has wrong width")
	}
}

func TestBetaWeightsObservedPoints(t *testing.T) {
	// A superlinear job must yield a superlinear beta estimate when its
	// observed scale-out point says so, even if the library mean is
	// sublinear.
	e, u := testSetup(t, 3)
	w := u.New(workload.Spec{Type: workload.Storm, Family: -1, MaxNodes: 4})
	w.Genome.Beta = 1.15
	es := e.Classify(w, NewGroundTruthProber(w, e.Platforms, nil)) // noise-free probes
	if es.Beta() < 1.0 {
		t.Fatalf("beta estimate %.2f for a beta=1.15 workload", es.Beta())
	}
}

// TestFeedbackRetrainProfiledAsClassify: the monitor's feedback loop reaches
// a retrain point through CorrectWith → Engine.Feedback from inside a runtime
// tick. The Feedback that reaches it fits there, inside its own classify
// section, so with a real profiler the fit's seconds are booked to the
// classify subsystem and not to the tick section it is nested in.
func TestFeedbackRetrainProfiledAsClassify(t *testing.T) {
	e, u := testSetup(t, 2)
	_, fed := classifyFresh(e, u, e.axes[AxisHetero].retrainThreshold())
	nodes := []NodeChoice{{PlatformIdx: 7, Alloc: cluster.Alloc{Cores: 12, MemoryGB: 24}}}

	p := prof.New()
	e.SetProfiler(p)
	stat := func(sub prof.Subsystem) (st prof.SubsystemStat) {
		for _, row := range p.Snapshot().Subsystems {
			if row.Name == sub.String() {
				st = row
			}
		}
		return st
	}
	het := e.axes[AxisHetero]
	before, start, feedbacks := het.model, het.stats, 0

	tick := p.Begin()
	for het.stats.Fits == start.Fits {
		if feedbacks == len(fed) {
			t.Fatalf("feedback on %d distinct workloads never reached a retrain point", len(fed))
		}
		es := fed[feedbacks]
		es.CorrectWith(es.JobPerf(nodes)*0.5, nodes)
		feedbacks++
	}
	p.End(prof.SubRuntime, tick)
	fit := het.stats.FitSeconds - start.FitSeconds
	if het.model == before || het.stats.Fits != start.Fits+1 || fit <= 0 {
		t.Fatalf("the feedback that reached a retrain point did not fit it: stats %+v → %+v", start, het.stats)
	}
	if got := stat(prof.SubClassify).Calls; got != int64(feedbacks) {
		t.Fatalf("classify sections = %d, want one per feedback (%d)", got, feedbacks)
	}
	if classify, runtime := stat(prof.SubClassify).Seconds, stat(prof.SubRuntime).Seconds; classify < fit || runtime >= classify {
		t.Fatalf("fit of %.6fs booked to the tick: classify %.6fs, runtime_tick %.6fs", fit, classify, runtime)
	}
}

// classifyFresh classifies n new workloads and returns them with their
// estimates, each workload its own matrix row.
func classifyFresh(e *Engine, u *workload.Universe, n int) ([]*workload.Instance, []*Estimates) {
	ws, ests := make([]*workload.Instance, n), make([]*Estimates, n)
	for i := range ws {
		ws[i] = u.New(workload.Spec{Type: workload.Hadoop, Family: -1, MaxNodes: 4})
		ests[i] = e.Classify(ws[i], NewGroundTruthProber(ws[i], e.Platforms, sim.NewRNG(int64(5+i))))
	}
	return ws, ests
}

// TestFeedbackCountsRowOncePerInterval: runtime feedback rewrites the same
// cells of the same running workloads tick after tick. However often one row
// is fed back, it is one change toward the next retrain point until that
// point is reached; threshold-many distinct rows reach it. Every write still
// lands in the matrix, and a re-profile still counts each cell it writes.
func TestFeedbackCountsRowOncePerInterval(t *testing.T) {
	e, u := testSetup(t, 2)
	het := e.axes[AxisHetero]
	ws, fed := classifyFresh(e, u, het.retrainThreshold())
	row, _ := e.RowOf(fed[0].ID)

	since, fits := het.sinceTrain, het.stats.Fits
	for i := 0; i < 3*het.retrainThreshold(); i++ {
		v := 0.5 + 0.01*float64(i)
		e.Feedback(fed[0].ID, AxisHetero, i%len(e.Platforms), v)
		if got, ok := het.mat.Get(row, i%len(e.Platforms)); !ok || math.Float64bits(got) != math.Float64bits(safeLog(v)) {
			t.Fatalf("feedback %d: matrix cell %v, want %v", i, got, safeLog(v))
		}
	}
	if het.sinceTrain != since+1 || het.stats.Fits != fits {
		t.Fatalf("%d feedbacks to one row: sinceTrain %d → %d, fits %d → %d; want one change and no retrain point",
			3*het.retrainThreshold(), since, het.sinceTrain, fits, het.stats.Fits)
	}

	for i := 1; het.stats.Fits == fits; i++ {
		if i == len(fed) {
			t.Fatalf("feedback to %d distinct rows never reached a retrain point (sinceTrain %d, threshold %d)",
				len(fed), het.sinceTrain, het.retrainThreshold())
		}
		e.Feedback(fed[i].ID, AxisHetero, 3, 0.5)
	}
	if het.sinceTrain != 0 {
		t.Fatalf("sinceTrain %d after a retrain point, want 0", het.sinceTrain)
	}
	// A new retrain interval: the first row counts again, once.
	e.Feedback(fed[0].ID, AxisHetero, 3, 0.7)
	e.Feedback(fed[0].ID, AxisHetero, 4, 0.7)
	if het.sinceTrain != 1 {
		t.Fatalf("sinceTrain %d after feeding one row back twice in a new interval, want 1", het.sinceTrain)
	}

	// Reclassify's re-profile counts every cell it writes: on the scale-up
	// axis the reference column plus Entries picked ones.
	su := e.axes[AxisScaleUp]
	su.train()
	e.Reclassify(ws[0], NewGroundTruthProber(ws[0], e.Platforms, sim.NewRNG(9)))
	if want := 1 + e.opts.Entries; su.sinceTrain != want {
		t.Fatalf("re-profile counted %d scale-up changes, want %d (one per written cell)", su.sinceTrain, want)
	}
}

// correctWithReference is CorrectWith without the memo, on the estimates'
// own HetLog: the estimate is JobPerf over nodes on every call.
func correctWithReference(es *Estimates, measured float64, nodes []NodeChoice) float64 {
	if !(measured > 0) || math.IsInf(measured, 1) || len(nodes) == 0 {
		return 1
	}
	est := es.JobPerf(nodes)
	if est <= 0 {
		return 1
	}
	c := math.Min(math.Max(measured/est, 0.25), 4)
	if c > 0.9 && c < 1.1 {
		return 1
	}
	seen := map[int]bool{}
	for _, n := range nodes {
		if !seen[n.PlatformIdx] {
			seen[n.PlatformIdx] = true
			es.HetLog[n.PlatformIdx] += math.Log(c)
		}
	}
	return c
}

// TestCorrectWithMemoMatchesRecompute drives CorrectWith and the memo-free
// reference through random sequences of the monitor's calls, on one node
// buffer rewritten in place as nodeChoices rewrites its own: the placement
// kept or changed, one pressure component nudged by an ulp, the measurement
// inside or outside the noise band, and JobPerf on sub-slices in between
// (the reclaim check's call). Every return value and every HetLog bit must
// match. A memo that aliased the caller's buffer, or survived a correction,
// would hand back a stale estimate and diverge.
func TestCorrectWithMemoMatchesRecompute(t *testing.T) {
	e, u := testSetup(t, 2)
	rng := rand.New(rand.NewSource(42))
	nplat := len(e.Platforms)
	for seq := 0; seq < 20; seq++ {
		w := u.New(workload.Spec{Type: workload.Hadoop, Family: -1, MaxNodes: 4})
		es := e.Classify(w, NewGroundTruthProber(w, e.Platforms, sim.NewRNG(int64(seq))))
		ref := &Estimates{Engine: e, RefPerf: es.RefPerf, SULog: es.SULog, SOLog: es.SOLog,
			HetLog: append([]float64(nil), es.HetLog...), Tol: es.Tol, Caused: es.Caused, beta: es.beta}

		buf := make([]NodeChoice, 0, 4)
		place := func() {
			buf = buf[:0]
			for n := 1 + rng.Intn(3); n > 0; n-- {
				p := rng.Intn(nplat)
				var pr cluster.ResVec
				for r := range pr {
					pr[r] = 0.5 * rng.Float64()
				}
				buf = append(buf, NodeChoice{PlatformIdx: p, Pressure: pr,
					Alloc: cluster.Alloc{Cores: 1 + rng.Intn(e.Platforms[p].Cores), MemoryGB: float64(1 + rng.Intn(32))}})
			}
		}
		place()
		for step := 0; step < 200; step++ {
			switch op := rng.Intn(10); {
			case op < 2:
				place()
			case op < 4:
				n := &buf[rng.Intn(len(buf))]
				r := rng.Intn(int(cluster.NumResources))
				n.Pressure[r] = math.Nextafter(n.Pressure[r], 1)
			case op < 5:
				k := rng.Intn(len(buf) + 1)
				if got, want := es.JobPerf(buf[:k]), ref.JobPerf(buf[:k]); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("seq %d step %d: JobPerf(nodes[:%d]) = %v, reference %v", seq, step, k, got, want)
				}
			}
			measured := ref.JobPerf(buf)
			if rng.Intn(2) == 0 {
				measured *= 0.92 + 0.16*rng.Float64() // inside the noise band
			} else {
				measured *= []float64{0.2, 0.5, 0.8, 1.2, 2, 5}[rng.Intn(6)]
			}
			got, want := es.CorrectWith(measured, buf), correctWithReference(ref, measured, buf)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("seq %d step %d: CorrectWith = %v, reference %v", seq, step, got, want)
			}
			for p := range es.HetLog {
				if math.Float64bits(es.HetLog[p]) != math.Float64bits(ref.HetLog[p]) {
					t.Fatalf("seq %d step %d: HetLog[%d] = %v, reference %v", seq, step, p, es.HetLog[p], ref.HetLog[p])
				}
			}
		}
	}
}

// TestCorrectWithIgnoresNonFiniteMeasurements: a measurement that is NaN or
// infinite says nothing about the estimate. It must leave the estimates and
// the heterogeneity matrix as they were, as a zero or negative one does.
func TestCorrectWithIgnoresNonFiniteMeasurements(t *testing.T) {
	e, u := testSetup(t, 2)
	w := u.New(workload.Spec{Type: workload.Hadoop, Family: -1, MaxNodes: 4})
	es := e.Classify(w, NewGroundTruthProber(w, e.Platforms, sim.NewRNG(5)))
	nodes := []NodeChoice{{PlatformIdx: 7, Alloc: cluster.Alloc{Cores: 12, MemoryGB: 24}}}
	row, _ := e.RowOf(w.ID)
	for _, m := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1, 0} {
		het := append([]float64(nil), es.HetLog...)
		cell, had := e.axes[AxisHetero].mat.Get(row, 7)
		if c := es.CorrectWith(m, nodes); c != 1 {
			t.Errorf("measurement %v: correction %v, want 1", m, c)
		}
		for p := range het {
			if math.Float64bits(es.HetLog[p]) != math.Float64bits(het[p]) {
				t.Errorf("measurement %v: HetLog[%d] %v → %v", m, p, het[p], es.HetLog[p])
			}
		}
		if v, ok := e.axes[AxisHetero].mat.Get(row, 7); ok != had || math.Float64bits(v) != math.Float64bits(cell) {
			t.Errorf("measurement %v: matrix cell %v → %v", m, cell, v)
		}
	}
}

// TestFeedbackIgnoresNonFiniteAndOutOfRange: Engine.Feedback drops a value
// that is not finite — one NaN cell would make the axis's next fit NaN
// everywhere — and a column outside the axis, as it drops an unknown
// workload, rather than panicking in the matrix.
func TestFeedbackIgnoresNonFiniteAndOutOfRange(t *testing.T) {
	e, u := testSetup(t, 2)
	w := u.New(workload.Spec{Type: workload.Hadoop, Family: -1, MaxNodes: 4})
	e.Classify(w, NewGroundTruthProber(w, e.Platforms, sim.NewRNG(5)))
	before, err := e.MarshalSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	var since [numAxes]int
	for axis := Axis(0); axis < numAxes; axis++ {
		since[axis] = e.axes[axis].sinceTrain
		cols := e.axes[axis].mat.Cols
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			e.Feedback(w.ID, axis, 0, v)
		}
		for _, col := range []int{-1, cols, cols + 5} {
			e.Feedback(w.ID, axis, col, 0.5)
		}
	}
	e.Feedback("no-such-workload", AxisHetero, 0, 0.5)
	after, err := e.MarshalSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if string(before) != string(after) {
		t.Fatal("ignored feedback changed the matrices")
	}
	for axis, a := range e.axes {
		if a.sinceTrain != since[axis] {
			t.Errorf("%s: ignored feedback counted toward a retrain point", Axis(axis))
		}
	}
}
