package classify

import (
	"math"
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
// tick. That books one cheap classify section per feedback and fits nothing;
// the fit is paid by the next reader — Reclassify, Classify or EnsureTrained —
// and, with a real profiler, booked to the classify subsystem there and not
// to the tick section it is nested in.
func TestFeedbackRetrainProfiledAsClassify(t *testing.T) {
	e, u := testSetup(t, 2)
	w := u.New(workload.Spec{Type: workload.Hadoop, Family: -1, MaxNodes: 4})
	es := e.Classify(w, NewGroundTruthProber(w, e.Platforms, sim.NewRNG(5)))
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
	for het.stats.Points == start.Points {
		if feedbacks++; feedbacks > 10*het.retrainThreshold() {
			t.Fatal("feedback never reached a retrain point")
		}
		es.CorrectWith(es.JobPerf(nodes)*0.5, nodes)
	}
	p.End(prof.SubRuntime, tick)
	if het.model != before || het.stats.Fits != start.Fits || !het.pending {
		t.Fatalf("feedback past the threshold fitted a model: stats %+v → %+v, pending %v", start, het.stats, het.pending)
	}
	if got := stat(prof.SubClassify).Calls; got != int64(feedbacks) {
		t.Fatalf("classify sections = %d, want one per feedback (%d)", got, feedbacks)
	}

	w2 := u.New(workload.Spec{Type: workload.Spark, Family: -1, MaxNodes: 4})
	reprobe, probe2 := NewGroundTruthProber(w, e.Platforms, sim.NewRNG(6)), NewGroundTruthProber(w2, e.Platforms, sim.NewRNG(7))
	for _, reader := range []struct {
		name string
		read func()
	}{
		{"Reclassify", func() { e.Reclassify(w, reprobe) }},
		{"EnsureTrained", e.EnsureTrained},
		{"Classify", func() { e.Classify(w2, probe2) }},
	} {
		name, read := reader.name, reader.read
		if !het.pending {
			het.train() // the previous reader resolved it
		}
		classify0, runtime0, fit0 := stat(prof.SubClassify), stat(prof.SubRuntime), het.stats
		tick = p.Begin()
		read()
		p.End(prof.SubRuntime, tick)
		fit := het.stats.FitSeconds - fit0.FitSeconds
		if het.pending || het.stats.Fits != fit0.Fits+1 || fit <= 0 {
			t.Fatalf("%s did not fit the pending retrain point: stats %+v → %+v", name, fit0, het.stats)
		}
		classify, runtime := stat(prof.SubClassify).Seconds-classify0.Seconds, stat(prof.SubRuntime).Seconds-runtime0.Seconds
		if classify < fit || runtime >= classify {
			t.Fatalf("%s: fit of %.6fs booked to the tick: classify +%.6fs, runtime_tick +%.6fs", name, fit, classify, runtime)
		}
	}
}
