package experiments

import (
	"bytes"
	"strings"
	"testing"

	"quasar/internal/trace"
)

// The experiment tests run shrunken configurations and assert the paper's
// qualitative shapes: who wins, roughly by how much, and that every
// renderer produces output. Full-scale configurations run under
// cmd/quasar-bench and the repository benchmarks.

func TestFig1Shape(t *testing.T) {
	t.Parallel()
	cfg := trace.DefaultConfig()
	cfg.Servers, cfg.Workloads, cfg.Days = 150, 600, 10
	r := Fig1(cfg)
	if r.Trace.MeanCPUResvPct() < 2*r.Trace.MeanCPUUsedPct() {
		t.Fatalf("reservation/usage gap too small: %.1f vs %.1f",
			r.Trace.MeanCPUResvPct(), r.Trace.MeanCPUUsedPct())
	}
	var buf bytes.Buffer
	r.Print(&buf)
	if !strings.Contains(buf.String(), "Figure 1") {
		t.Fatal("print output incomplete")
	}
}

func TestFig2Shape(t *testing.T) {
	t.Parallel()
	r := Fig2(3)
	// Heterogeneity: J should beat A substantially for Hadoop.
	if r.HadoopHeterogeneity["J"] < 2*r.HadoopHeterogeneity["A"] {
		t.Fatalf("heterogeneity spread too small: J=%.2f A=%.2f",
			r.HadoopHeterogeneity["J"], r.HadoopHeterogeneity["A"])
	}
	// Interference: pattern A (none) must beat every contended pattern.
	for pat, v := range r.HadoopInterference {
		if pat != "A" && v > r.HadoopInterference["A"]+1e-9 {
			t.Fatalf("pattern %s beat no-interference", pat)
		}
	}
	// Scale-out: 8 nodes beat 1 node.
	if r.HadoopScaleOut[8] <= r.HadoopScaleOut[1] {
		t.Fatal("no scale-out benefit")
	}
	// Scale-up spread should be an order of magnitude (Fig. 2: ~10x).
	if r.HadoopScaleUpRange[1] < 3*r.HadoopScaleUpRange[0] {
		t.Fatalf("scale-up spread too small: %v", r.HadoopScaleUpRange)
	}
	var buf bytes.Buffer
	r.Print(&buf)
	if len(buf.String()) < 500 {
		t.Fatal("print output too short")
	}
}

func TestTable1Complete(t *testing.T) {
	t.Parallel()
	r := Table1()
	if len(r.Platforms) != 10 || len(r.Patterns) != 9 || len(r.Hadoop) != 3 || len(r.Memcached) != 3 {
		t.Fatalf("table 1 incomplete: %d platforms, %d patterns", len(r.Platforms), len(r.Patterns))
	}
	var buf bytes.Buffer
	r.Print(&buf)
	if !strings.Contains(buf.String(), "netflix") {
		t.Fatal("datasets missing from output")
	}
}

func TestTable2Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("classification sweep runs ~20s under -race")
	}
	t.Parallel()
	cfg := DefaultTable2Config()
	cfg.Hadoop, cfg.Memcached, cfg.Webserver, cfg.SingleNode = 3, 3, 3, 12
	r := Table2(cfg)
	if len(r.Rows) != 4 {
		t.Fatalf("%d rows", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.ScaleUp.N == 0 || row.Hetero.N == 0 || row.Interf.N == 0 {
			t.Fatalf("%s: empty error sets", row.AppClass)
		}
		// Errors must be finite and bounded.
		if row.Hetero.Avg > 0.6 || row.Interf.Avg > 0.3 {
			t.Fatalf("%s: errors implausibly high: het %.2f interf %.2f",
				row.AppClass, row.Hetero.Avg, row.Interf.Avg)
		}
		// Single-node workloads have no scale-out classification ("-" in
		// the paper's table).
		if row.AppClass == "Single-node" && row.ScaleOut.N != 0 {
			t.Fatal("single-node got scale-out errors")
		}
	}
	var buf bytes.Buffer
	r.Print(&buf)
	if !strings.Contains(buf.String(), "exhaustive") {
		t.Fatal("exhaustive column missing")
	}
}

func TestFig3Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("density sweep plus decision-time comparison")
	}
	cfg := DefaultFig3Config()
	cfg.EntriesGrid = []int{1, 2, 8}
	cfg.PerClass = 3
	r := Fig3(cfg)
	// Error must fall substantially from 1 entry to 8 entries for the
	// scale-up classification (the figure's headline).
	byEntries := map[int]float64{}
	for _, pt := range r.Points {
		if pt.AppClass == "hadoop" {
			byEntries[pt.Entries] = pt.P90["scale-up"]
		}
	}
	if byEntries[8] > byEntries[1] {
		t.Fatalf("error did not fall with density: 1->%.2f 8->%.2f", byEntries[1], byEntries[8])
	}
	// The exhaustive classification must be much slower to decide. With
	// more library rows than columns on both sides, a model rebuild costs
	// the cube of the column count: (joint/scale-up)³ ≈ 100× for the
	// decomposition (BenchmarkSymEig 81 vs 390), diluted by the SGD passes
	// that scale with nnz only — which, since the eigen-solve is symEig, are
	// most of the four-parallel side on this dense library. The regime is
	// asserted exactly; the wall-clock ratio it produces (8–9× on an idle
	// host) is only logged, since a loaded host can distort any reading.
	if r.DecisionRows <= r.ExhaustiveCols || r.ExhaustiveCols <= 4*r.ScaleUpCols {
		t.Fatalf("decision-time comparison outside its regime: %d rows, %d joint vs %d scale-up columns",
			r.DecisionRows, r.ExhaustiveCols, r.ScaleUpCols)
	}
	t.Logf("decision time per arrival: exhaustive %.4fs vs four parallel %.4fs (%.1fx)",
		r.ExhaustiveDecisionSecs, r.FourParallelDecisionSecs, r.ExhaustiveDecisionSecs/r.FourParallelDecisionSecs)
}

func TestFig5Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("hadoop-job scenarios run ~17s under -race")
	}
	t.Parallel()
	cfg := DefaultFig5Config()
	cfg.Jobs = 3
	r, err := Fig5(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.MeanSpeedupPct < 5 {
		t.Fatalf("mean speedup %.1f%%: Quasar should beat the Hadoop scheduler", r.MeanSpeedupPct)
	}
	if r.MeanQuasarGapPct > r.MeanHadoopGapPct {
		t.Fatalf("quasar gap %.1f%% worse than hadoop %.1f%%",
			r.MeanQuasarGapPct, r.MeanHadoopGapPct)
	}
	var buf bytes.Buffer
	r.Print(&buf)
	r.Table3(&buf)
	if !strings.Contains(buf.String(), "Table 3") {
		t.Fatal("table 3 render missing")
	}
}

func TestFig6Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("low-utilization scenario runs ~8s under -race")
	}
	t.Parallel()
	cfg := DefaultFig6Config()
	cfg.Hadoop, cfg.Storm, cfg.Spark, cfg.BestEffort = 3, 1, 1, 30
	cfg.HorizonSecs = 9000
	r, err := Fig6(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Jobs) != 5 {
		t.Fatalf("%d jobs", len(r.Jobs))
	}
	if r.MeanSpeedupPct < 0 {
		t.Fatalf("quasar slower on average: %.1f%%", r.MeanSpeedupPct)
	}
	if r.QuasarUtilPct <= 0 || r.BaselineUtilPct <= 0 {
		t.Fatal("utilization not measured")
	}
	var buf bytes.Buffer
	r.Fig7(&buf)
	if !strings.Contains(buf.String(), "Figure 7") {
		t.Fatal("figure 7 section missing")
	}
}

func TestFig8Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("service scenarios run ~7s under -race")
	}
	t.Parallel()
	cfg := DefaultFig8Config()
	cfg.HorizonSecs = 6000
	cfg.BestEffort = 60
	r, err := Fig8(cfg)
	if err != nil {
		t.Fatal(err)
	}
	qos := map[string]map[string]float64{}
	for _, s := range r.Series {
		if qos[s.Pattern] == nil {
			qos[s.Pattern] = map[string]float64{}
		}
		qos[s.Pattern][s.Manager] = s.QoSMetFrac
	}
	for pat, m := range qos {
		if m["quasar"] < 0.9 {
			t.Errorf("%s: quasar QoS only %.2f", pat, m["quasar"])
		}
		if m["quasar"] < m["autoscale"]-0.02 {
			t.Errorf("%s: autoscale (%.2f) beat quasar (%.2f)", pat, m["autoscale"], m["quasar"])
		}
	}
}

func TestFig9Shape(t *testing.T) {
	t.Parallel()
	cfg := DefaultFig9Config()
	cfg.HorizonSecs = 4 * 3600
	cfg.BestEffort = 100
	r, err := Fig9(cfg)
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string]float64{}
	for _, s := range r.Services {
		byKey[s.Service+"/"+s.Manager] = s.QoSMetFrac
	}
	if byKey["memcached/quasar"] < 0.9 {
		t.Errorf("memcached quasar QoS %.2f", byKey["memcached/quasar"])
	}
	if byKey["memcached/quasar"] < byKey["memcached/autoscale"]-0.02 {
		t.Errorf("autoscale beat quasar on memcached: %.2f vs %.2f",
			byKey["memcached/autoscale"], byKey["memcached/quasar"])
	}
	if len(r.Windows) != 4 {
		t.Fatalf("%d windows", len(r.Windows))
	}
}

func TestFig11Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-minute scenario")
	}
	t.Parallel()
	cfg := DefaultFig11Config()
	cfg.Workloads = 120
	cfg.HorizonSecs = 7000
	r, err := Fig11(cfg)
	if err != nil {
		t.Fatal(err)
	}
	perf := map[string]float64{}
	for _, run := range r.Runs {
		perf[run.Manager] = run.MeanPerf
	}
	// The paper's ordering: quasar > reservation+paragon and > LL.
	if perf["quasar"] <= perf["reservation+LL"] {
		t.Errorf("quasar (%.2f) did not beat reservation+LL (%.2f)",
			perf["quasar"], perf["reservation+LL"])
	}
	if perf["quasar"] <= perf["reservation+paragon"] {
		t.Errorf("quasar (%.2f) did not beat reservation+paragon (%.2f)",
			perf["quasar"], perf["reservation+paragon"])
	}
	var buf bytes.Buffer
	r.Print(&buf)
	if !strings.Contains(buf.String(), "allocated") {
		t.Fatal("fig 11d section missing")
	}
}

func TestStragglersShape(t *testing.T) {
	t.Parallel()
	r := Stragglers(5, 1)
	q, h, l := r.Results["quasar"], r.Results["hadoop"], r.Results["late"]
	if q.MeanDetectionSecs >= h.MeanDetectionSecs {
		t.Errorf("quasar (%.1fs) not earlier than hadoop (%.1fs)",
			q.MeanDetectionSecs, h.MeanDetectionSecs)
	}
	if q.MeanDetectionSecs >= l.MeanDetectionSecs {
		t.Errorf("quasar (%.1fs) not earlier than LATE (%.1fs)",
			q.MeanDetectionSecs, l.MeanDetectionSecs)
	}
	if l.MeanDetectionSecs >= h.MeanDetectionSecs {
		t.Errorf("LATE (%.1fs) not earlier than hadoop (%.1fs)",
			l.MeanDetectionSecs, h.MeanDetectionSecs)
	}
}

// TestPhasesShape injects 10 phase changes per seed of behaviourSeeds and
// scores detection over the pooled 120 injections: even-indexed ones (a
// visible slowdown) are the reactive path's, odd-indexed ones (a silent
// interference shift) the proactive probes'.
func TestPhasesShape(t *testing.T) {
	if testing.Short() {
		t.Skip("phase-change scenario runs ~40s under -race")
	}
	t.Parallel()
	results := overSeeds(t, func(t *testing.T, seed int64) *PhaseResult {
		r, err := Phases(10, seed)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("reactive %d, proactive %d, false positives %d of %d injections",
			r.ReactiveDetected, r.ProactiveDetected, r.FalsePositives, r.Injected)
		return r
	})
	if t.Failed() {
		return
	}
	var injected, loud, silent, reactive, proactive, fps int
	for _, r := range results {
		injected += r.Injected
		loud += (r.Injected + 1) / 2
		silent += r.Injected / 2
		reactive += r.ReactiveDetected
		proactive += r.ProactiveDetected
		fps += r.FalsePositives
	}
	pct := func(n, of int) float64 { return 100 * float64(n) / float64(max(1, of)) }
	if p := pct(reactive, loud); p < 60 {
		t.Errorf("reactive detection only %.0f%% (%d/%d)", p, reactive, loud)
	}
	if p := pct(proactive, silent); p < 40 {
		t.Errorf("proactive detection only %.0f%% (%d/%d)", p, proactive, silent)
	}
	if p := pct(fps, injected); p > 30 {
		t.Errorf("proactive FPs %.0f%% (%d/%d)", p, fps, injected)
	}
	t.Logf("pooled over %d injections: reactive %d/%d, proactive %d/%d, false positives %d",
		injected, reactive, loud, proactive, silent, fps)
}

func TestOverheadsShape(t *testing.T) {
	if testing.Short() {
		t.Skip("overhead sweep runs ~9s under -race")
	}
	t.Parallel()
	r, err := Overheads(6, 3)
	if err != nil {
		t.Fatal(err)
	}
	if r.N == 0 {
		t.Fatal("no jobs completed")
	}
	if r.MeanPct <= 0 || r.MeanPct > 20 {
		t.Errorf("mean overhead %.1f%% outside the plausible band", r.MeanPct)
	}
}

func TestAblationsShape(t *testing.T) {
	if testing.Short() {
		t.Skip("six full scenarios")
	}
	t.Parallel()
	// Shrunken scenario: the full 18-job/15000s run is quasar-bench's.
	r, err := AblationsSized(5, 9, 8000)
	if err != nil {
		t.Fatal(err)
	}
	perf := map[string]float64{}
	for _, row := range r.Rows {
		perf[row.Name] = row.MeanPerf
	}
	full := perf["full quasar"]
	if full <= 0 {
		t.Fatal("full quasar scored zero")
	}
	// Disabling adaptation must hurt: it is the paper's recovery path for
	// classification error.
	if perf["no adaptation"] > full+0.05 {
		t.Errorf("no-adaptation (%.2f) beat full quasar (%.2f)", perf["no adaptation"], full)
	}
	var buf bytes.Buffer
	r.Print(&buf)
	if !strings.Contains(buf.String(), "variant") {
		t.Fatal("ablation table missing")
	}
}

func TestManagerKindNames(t *testing.T) {
	t.Parallel()
	for k := KindQuasar; k <= KindMesosDRF; k++ {
		if k.String() == "" || strings.HasPrefix(k.String(), "manager(") {
			t.Fatalf("kind %d unnamed", int(k))
		}
	}
}

func TestScenarioConstruction(t *testing.T) {
	t.Parallel()
	for _, kind := range []ManagerKind{KindQuasar, KindReservationLL, KindReservationParagon, KindFrameworkSelf, KindAutoscale} {
		s, err := NewScenario(ScenarioConfig{Cluster: Local40, Manager: kind, Seed: 1, SeedLib: 1})
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if s.Mgr == nil {
			t.Fatalf("%v: nil manager", kind)
		}
		if kind == KindQuasar && s.Q == nil {
			t.Fatal("quasar handle missing")
		}
	}
}
