package experiments

import (
	"io"
	"math"

	"quasar/internal/core"
	"quasar/internal/loadgen"
	"quasar/internal/par"
	"quasar/internal/perfmodel"
	"quasar/internal/sim"
	"quasar/internal/workload"
)

// StragglerResultSet reproduces §4.3: Quasar detects stragglers earlier
// than stock Hadoop speculative execution and LATE.
type StragglerResultSet struct {
	Trials  int
	Results map[string]core.StragglerResult // averaged over trials
	// EarlierThanHadoopPct / EarlierThanLATEPct are the mean detection-
	// latency reductions (paper: 19% and 8%).
	EarlierThanHadoopPct float64
	EarlierThanLATEPct   float64
}

// Stragglers runs the straggler-detection study.
func Stragglers(trials int, seed int64) *StragglerResultSet {
	if trials <= 0 {
		trials = 7
	}
	// Each trial seeds its own RNG, so trials fan out across workers; the
	// float accumulation below runs in trial order to keep sums (and thus
	// serialized output) byte-identical for any worker count.
	perTrial := par.ParMap(trials, func(trial int) []core.StragglerResult {
		rng := sim.NewRNG(seed + int64(trial))
		detectors := []core.StragglerDetector{
			core.NewHadoopDetector(30),
			core.NewLATEDetector(20),
			core.NewQuasarDetector(10, rng.Stream("probe")),
		}
		return core.RunStragglerStudy(40, 0.15, 0.25, detectors, rng.Stream("study"))
	})
	agg := map[string]*core.StragglerResult{}
	for _, results := range perTrial {
		for _, res := range results {
			a, ok := agg[res.Detector]
			if !ok {
				a = &core.StragglerResult{Detector: res.Detector}
				agg[res.Detector] = a
			}
			a.MeanDetectionSecs += res.MeanDetectionSecs / float64(trials)
			a.DetectedFrac += res.DetectedFrac / float64(trials)
			a.FalsePositives += res.FalsePositives
		}
	}
	out := &StragglerResultSet{Trials: trials, Results: map[string]core.StragglerResult{}}
	for name, a := range agg {
		out.Results[name] = *a
	}
	h, l, q := out.Results["hadoop"], out.Results["late"], out.Results["quasar"]
	if h.MeanDetectionSecs > 0 {
		out.EarlierThanHadoopPct = 100 * (h.MeanDetectionSecs - q.MeanDetectionSecs) / h.MeanDetectionSecs
	}
	if l.MeanDetectionSecs > 0 {
		out.EarlierThanLATEPct = 100 * (l.MeanDetectionSecs - q.MeanDetectionSecs) / l.MeanDetectionSecs
	}
	return out
}

// Print renders the straggler study.
func (r *StragglerResultSet) Print(w io.Writer) {
	fprintf(w, "== Straggler detection (§4.3), %d trials ==\n", r.Trials)
	fprintf(w, "%-8s %14s %10s %6s\n", "detector", "detect lat(s)", "detected", "FPs")
	for _, name := range []string{"hadoop", "late", "quasar"} {
		res := r.Results[name]
		fprintf(w, "%-8s %14.1f %9.0f%% %6d\n",
			name, res.MeanDetectionSecs, 100*res.DetectedFrac, res.FalsePositives)
	}
	fprintf(w, "quasar detects %.0f%% earlier than hadoop (paper: 19%%), %.0f%% earlier than LATE (paper: 8%%)\n",
		r.EarlierThanHadoopPct, r.EarlierThanLATEPct)
}

// PhaseResult reproduces §4.1's phase-detection validation.
type PhaseResult struct {
	Injected          int
	ReactiveDetected  int
	ProactiveDetected int
	FalsePositives    int
	ReactivePct       float64
	ProactivePct      float64
	FalsePositivePct  float64
}

// Phases injects phase changes into long-running workloads under Quasar and
// measures how many are caught reactively (performance deviation) and
// proactively (interference-probe sampling), plus proactive false
// positives.
func Phases(injections int, seed int64) (*PhaseResult, error) {
	if injections <= 0 {
		injections = 25
	}
	s, err := NewScenario(ScenarioConfig{
		Cluster: Local40, Manager: KindQuasar, Seed: seed, MaxNodes: 4, SeedLib: 3,
	})
	if err != nil {
		return nil, err
	}
	// Long-running single-node workloads that will phase-change.
	var tasks []*core.Task
	for i := 0; i < injections; i++ {
		w := s.U.New(workload.Spec{Type: workload.SingleNode, Family: -1, TargetSlack: 1.3})
		w.Genome.Work = 1e9 // effectively endless
		tasks = append(tasks, s.RT.Submit(w, float64(i)*3, nil))
	}
	s.RT.Run(1200) // settle

	// Inject one phase change per workload, spread over time. Two kinds:
	// even-indexed workloads suffer a visible performance drop (reactive
	// detection territory); odd-indexed ones only shift their
	// interference profile — no immediate performance change, so only the
	// proactive probes can catch them before they hurt a future
	// colocation.
	injectAt := map[string]float64{}
	silent := map[string]bool{}
	rng := sim.NewRNG(seed + 99)
	for i, t := range tasks {
		at := 1500 + float64(i)*120
		injectAt[t.W.ID] = at
		task := t
		if i%2 == 0 {
			s.RT.Eng.Schedule(at, func() {
				s.RT.ShiftPhase(task, func(g *perfmodel.Genome) { g.BaseRate *= 0.5 })
			})
		} else {
			silent[t.W.ID] = true
			s.RT.Eng.Schedule(at, func() {
				s.RT.ShiftPhase(task, func(g *perfmodel.Genome) {
					for r := range g.Sens {
						g.Sens[r] = 1 - (1-g.Sens[r])*rng.Uniform(0.3, 0.6)
					}
				})
			})
		}
	}
	horizon := 1500 + float64(injections)*120 + 2400
	s.RT.Run(horizon)
	s.RT.Stop()

	res := &PhaseResult{Injected: injections}
	detected := map[string]string{}
	for _, ev := range s.Q.PhaseEvents {
		at, ok := injectAt[ev.TaskID]
		if !ok {
			continue
		}
		if ev.Time >= at {
			if _, dup := detected[ev.TaskID]; !dup {
				detected[ev.TaskID] = ev.Source
			}
		} else if ev.Source == "proactive" {
			res.FalsePositives++
		}
	}
	nSilent, nLoud := 0, 0
	for id := range injectAt {
		if silent[id] {
			nSilent++
		} else {
			nLoud++
		}
	}
	for id, src := range detected {
		if silent[id] && src == "proactive" {
			res.ProactiveDetected++
		}
		if !silent[id] {
			res.ReactiveDetected++
		}
	}
	if nLoud > 0 {
		res.ReactivePct = 100 * float64(res.ReactiveDetected) / float64(nLoud)
	}
	if nSilent > 0 {
		res.ProactivePct = 100 * float64(res.ProactiveDetected) / float64(nSilent)
	}
	probes := math.Max(1, float64(injections))
	res.FalsePositivePct = 100 * float64(res.FalsePositives) / probes
	return res, nil
}

// Print renders the phase study.
func (r *PhaseResult) Print(w io.Writer) {
	fprintf(w, "== Phase detection (§4.1) ==\n")
	fprintf(w, "injected %d phase changes: reactive detected %.0f%%, proactive detected %.0f%%, proactive FPs %.0f%%\n",
		r.Injected, r.ReactivePct, r.ProactivePct, r.FalsePositivePct)
	fprintf(w, "paper: 94%% detected reactively; 78%% proactively with 8%% false positives\n")
}

// OverheadResult reproduces §6.5's cluster-management overhead accounting.
type OverheadResult struct {
	MeanPct float64 // mean overhead as a fraction of execution time
	MaxPct  float64
	N       int
}

// Overheads measures profiling + scheduling overhead (submission to start)
// relative to execution time for a stream of batch jobs under Quasar.
func Overheads(jobs int, seed int64) (*OverheadResult, error) {
	if jobs <= 0 {
		jobs = 12
	}
	s, err := NewScenario(ScenarioConfig{
		Cluster: Local40, Manager: KindQuasar, Seed: seed, MaxNodes: 4, SeedLib: 3,
	})
	if err != nil {
		return nil, err
	}
	var tasks []*core.Task
	for i := 0; i < jobs; i++ {
		tp := []workload.Type{workload.Hadoop, workload.SingleNode, workload.Spark}[i%3]
		w := s.U.New(workload.Spec{Type: tp, Family: -1, MaxNodes: 3, TargetSlack: 1.2,
			Dataset: workload.Dataset{Name: "oh", SizeGB: 10, WorkMult: 1.5, MemMult: 1}})
		tasks = append(tasks, s.RT.Submit(w, float64(i)*30, nil))
	}
	s.RT.Run(40000)
	s.RT.Stop()
	res := &OverheadResult{}
	sum := 0.0
	for _, t := range tasks {
		if t.Status != core.StatusCompleted {
			continue
		}
		// Overhead ends at the first start: for a displaced job, the time
		// up to its latest start includes run time.
		overhead := t.FirstStartAt - t.SubmitAt
		total := t.DoneAt - t.SubmitAt
		if total <= 0 {
			continue
		}
		pct := 100 * overhead / total
		sum += pct
		if pct > res.MaxPct {
			res.MaxPct = pct
		}
		res.N++
	}
	if res.N > 0 {
		res.MeanPct = sum / float64(res.N)
	}
	return res, nil
}

// Print renders the overhead study.
func (r *OverheadResult) Print(w io.Writer) {
	fprintf(w, "== Cluster-management overheads (§6.5) ==\n")
	fprintf(w, "profiling+scheduling overhead: mean %.1f%% of execution time, max %.1f%% (n=%d)\n",
		r.MeanPct, r.MaxPct, r.N)
	fprintf(w, "paper: 4.1%% on average, up to 9%% for short batch jobs\n")
}

// AblationRow is one design-choice toggle's outcome.
type AblationRow struct {
	Name     string
	MeanPerf float64 // mean normalized-to-target performance
}

// AblationResult compares the full Quasar against versions with individual
// design choices disabled (DESIGN.md's ablation index).
type AblationResult struct {
	Rows []AblationRow
}

// Ablations runs a medium multi-workload scenario with scheduler/manager
// features toggled.
func Ablations(seed int64) (*AblationResult, error) {
	return AblationsSized(seed, 18, 15000)
}

// AblationsSized is Ablations with an explicit job count and horizon, so
// tests can run a shrunken scenario.
func AblationsSized(seed int64, jobs int, horizon float64) (*AblationResult, error) {
	variants := []struct {
		name string
		mod  func(*core.QuasarOptions)
	}{
		{"full quasar", func(*core.QuasarOptions) {}},
		{"scale-out-first", func(o *core.QuasarOptions) { o.Sched.ScaleOutFirst = true }},
		{"no interference awareness", func(o *core.QuasarOptions) { o.Sched.IgnoreInterference = true }},
		{"no heterogeneity awareness", func(o *core.QuasarOptions) { o.Sched.IgnoreHeterogeneity = true }},
		{"no adaptation", func(o *core.QuasarOptions) { o.DisableAdaptation = true }},
		{"with partitioning", func(o *core.QuasarOptions) { o.EnablePartitioning = true }},
	}
	// Every variant runs its own scenario from the same seed; the six
	// simulations are independent and fan out across workers.
	perfs, err := par.ParMapErr(len(variants), func(i int) (float64, error) {
		return runAblation(seed, jobs, horizon, variants[i].mod)
	})
	if err != nil {
		return nil, err
	}
	res := &AblationResult{}
	for i, v := range variants {
		res.Rows = append(res.Rows, AblationRow{Name: v.name, MeanPerf: perfs[i]})
	}
	return res, nil
}

func runAblation(seed int64, jobs int, horizon float64, mod func(*core.QuasarOptions)) (float64, error) {
	s, err := NewScenario(ScenarioConfig{
		Cluster: Local40, Manager: KindQuasar, Seed: seed, MaxNodes: 4, SeedLib: 3,
	})
	if err != nil {
		return 0, err
	}
	// Rebuild the manager with modified options.
	opts := QuasarOptions(4)
	mod(&opts)
	q := core.NewQuasar(s.RT, opts)
	q.SeedLibrary(s.U.Library(workload.LibraryTypes, 3))
	s.RT.SetManager(q)
	s.Q, s.Mgr = q, q

	var tasks []*core.Task
	for i := 0; i < jobs; i++ {
		var w *workload.Instance
		var task *core.Task
		switch i % 3 {
		case 0:
			w = s.U.New(workload.Spec{Type: workload.Hadoop, Family: i % 3, MaxNodes: 2, TargetSlack: 1.3,
				Dataset: workload.Dataset{Name: "ab", SizeGB: 20, WorkMult: 1.5, MemMult: 1}})
			task = s.RT.Submit(w, float64(i)*10, nil)
		case 1:
			w = s.U.New(workload.Spec{Type: workload.Webserver, Family: -1, MaxNodes: 2})
			task = s.RT.Submit(w, float64(i)*10, loadgen.Flat{QPS: 0.8 * w.Target.QPS})
		default:
			w = s.U.New(workload.Spec{Type: workload.SingleNode, Family: -1, TargetSlack: 1.3})
			task = s.RT.Submit(w, float64(i)*10, nil)
		}
		tasks = append(tasks, task)
	}
	s.RT.Run(horizon)
	s.RT.Stop()
	sum, n := 0.0, 0
	for _, t := range tasks {
		v := PerfNormalizedToTarget(s.RT, t)
		if math.IsNaN(v) {
			continue
		}
		if v > 1 {
			v = 1
		}
		sum += v
		n++
	}
	if n == 0 {
		return 0, nil
	}
	return sum / float64(n), nil
}

// Print renders the ablation table.
func (r *AblationResult) Print(w io.Writer) {
	fprintf(w, "== Ablations: Quasar design choices ==\n")
	fprintf(w, "%-28s %18s\n", "variant", "mean %% of target")
	for _, row := range r.Rows {
		fprintf(w, "%-28s %17.1f%%\n", row.Name, 100*row.MeanPerf)
	}
}
