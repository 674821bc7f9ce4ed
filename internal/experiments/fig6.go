package experiments

import (
	"io"

	"quasar/internal/core"
	"quasar/internal/metrics"
	"quasar/internal/workload"
)

// Fig6Config sizes the multiple-batch-frameworks scenario (§6.2): 16
// Hadoop + 4 Storm + 4 Spark jobs with 5 s inter-arrival, plus best-effort
// single-node fillers at 1 s inter-arrival.
type Fig6Config struct {
	Hadoop, Storm, Spark int
	BestEffort           int
	Seed                 int64
	HorizonSecs          float64
}

// DefaultFig6Config matches the paper.
func DefaultFig6Config() Fig6Config {
	return Fig6Config{Hadoop: 16, Storm: 4, Spark: 4, BestEffort: 120, Seed: 17, HorizonSecs: 22000}
}

// Fig6JobResult is one analytics job under both managers.
type Fig6JobResult struct {
	ID         string
	Framework  string
	TargetSecs float64
	Quasar     float64
	Baseline   float64
	SpeedupPct float64
}

// Fig6Result is the multi-framework comparison; it also carries the
// utilization heatmaps of Figure 7.
type Fig6Result struct {
	Jobs           []Fig6JobResult
	MeanSpeedupPct float64
	MeanQuasarGap  float64

	// Fig. 7: per-server CPU utilization over time under both managers.
	QuasarHeat   *metrics.Heatmap
	BaselineHeat *metrics.Heatmap
	// Mean utilization over the active phase of the scenario.
	QuasarUtilPct   float64
	BaselineUtilPct float64
}

// fig6Run executes the scenario under one manager and returns per-job
// completion times (projected for unfinished jobs).
func fig6Run(kind ManagerKind, cfg Fig6Config) (map[string]float64, map[string]float64, *metrics.Heatmap, float64, error) {
	s, err := NewScenario(ScenarioConfig{
		Cluster: Local40, Manager: kind, Seed: cfg.Seed, MaxNodes: 4, SeedLib: 3,
	})
	if err != nil {
		return nil, nil, nil, 0, err
	}
	// Datasets stretch the jobs so adaptation transients amortize (the
	// paper's jobs run for hours).
	ds := func(i int) workload.Dataset {
		mult := []float64{1.2, 1.5, 2, 2.5}[i%4]
		return workload.Dataset{
			Name: "mix", SizeGB: 10 * mult, WorkMult: mult, MemMult: 1 + 0.1*float64(i%4),
		}
	}
	specs := make([]workload.Spec, 0, cfg.Hadoop+cfg.Storm+cfg.Spark)
	for i := 0; i < cfg.Hadoop; i++ {
		specs = append(specs, workload.Spec{Type: workload.Hadoop, Family: i % 3, Dataset: ds(i), MaxNodes: 3, TargetSlack: 1.2})
	}
	for i := 0; i < cfg.Storm; i++ {
		// Storm streams process at high rates; bigger inputs keep the
		// jobs long enough to be schedulable work.
		sds := ds(i)
		sds.WorkMult *= 5
		specs = append(specs, workload.Spec{Type: workload.Storm, Family: i % 3, Dataset: sds, MaxNodes: 2, TargetSlack: 1.5})
	}
	for i := 0; i < cfg.Spark; i++ {
		// Spark and Storm process at much higher rates than Hadoop;
		// bigger inputs keep their runtimes comparable.
		pds := ds(i)
		pds.WorkMult *= 3
		specs = append(specs, workload.Spec{Type: workload.Spark, Family: i % 3, Dataset: pds, MaxNodes: 2, TargetSlack: 1.5})
	}
	var tasks []*core.Task
	for i, spec := range specs {
		w := s.U.New(spec)
		tasks = append(tasks, s.RT.Submit(w, float64(i)*5, nil))
	}
	// Best-effort single-node fillers stream in over the active phase of
	// the scenario (the paper submits them at 1 s inter-arrival and keeps
	// them coming; they soak up any capacity the analytics jobs leave).
	beGap := cfg.HorizonSecs * 0.8 / float64(max(cfg.BestEffort, 1))
	for i := 0; i < cfg.BestEffort; i++ {
		be := s.U.New(workload.Spec{Type: workload.SingleNode, Family: -1, BestEffort: true})
		s.RT.Submit(be, float64(i)*beGap, nil)
	}
	s.RT.Run(cfg.HorizonSecs)
	s.RT.Stop()

	times := map[string]float64{}
	targets := map[string]float64{}
	for _, t := range tasks {
		key := t.W.ID
		targets[key] = t.W.Target.CompletionSecs
		if t.Status == core.StatusCompleted {
			times[key] = t.DoneAt - t.SubmitAt
		} else {
			frac := s.RT.ProgressFraction(t)
			if frac < 1e-6 {
				frac = 1e-6
			}
			times[key] = (s.RT.Eng.Now() - t.SubmitAt) / frac
		}
	}
	// Mean utilization over the manager's own active window: from the
	// first submissions until its last analytics job finished (the faster
	// manager's experiment simply ends sooner, exactly as in Fig. 7).
	lastDone := 0.0
	for _, t := range tasks {
		end := t.DoneAt
		if t.Status != core.StatusCompleted {
			end = s.RT.Eng.Now()
		}
		if end > lastDone {
			lastDone = end
		}
	}
	sum, n := 0.0, 0
	for i, ts := range s.RT.CPUHeat.Times {
		if ts > lastDone {
			break
		}
		for _, v := range s.RT.CPUHeat.Cells[i] {
			sum += v
			n++
		}
	}
	util := 0.0
	if n > 0 {
		util = sum / float64(n)
	}
	return times, targets, s.RT.CPUHeat, util, nil
}

// Fig6 runs the scenario under Quasar and the framework self-schedulers.
func Fig6(cfg Fig6Config) (*Fig6Result, error) {
	qTimes, targets, qHeat, qUtil, err := fig6Run(KindQuasar, cfg)
	if err != nil {
		return nil, err
	}
	bTimes, _, bHeat, bUtil, err := fig6Run(KindFrameworkSelf, cfg)
	if err != nil {
		return nil, err
	}
	res := &Fig6Result{QuasarHeat: qHeat, BaselineHeat: bHeat,
		QuasarUtilPct: qUtil * 100, BaselineUtilPct: bUtil * 100}
	sumSpeed, sumGap := 0.0, 0.0
	for id, q := range qTimes {
		b, ok := bTimes[id]
		if !ok {
			continue
		}
		fw := "hadoop"
		switch {
		case len(id) >= 5 && id[:5] == "storm":
			fw = "storm"
		case len(id) >= 5 && id[:5] == "spark":
			fw = "spark"
		}
		jr := Fig6JobResult{
			ID: id, Framework: fw, TargetSecs: targets[id],
			Quasar: q, Baseline: b,
			SpeedupPct: 100 * (b - q) / b,
		}
		res.Jobs = append(res.Jobs, jr)
	}
	// Deterministic order for printing — and for the mean computations
	// below: float addition is order-sensitive, so summing in map order
	// would let the means' low bits drift run to run.
	sortJobs(res.Jobs)
	for _, jr := range res.Jobs {
		sumSpeed += jr.SpeedupPct
		gap := (jr.Quasar - jr.TargetSecs) / jr.TargetSecs
		if gap < 0 {
			gap = -gap
		}
		sumGap += gap
	}
	n := float64(len(res.Jobs))
	res.MeanSpeedupPct = sumSpeed / n
	res.MeanQuasarGap = 100 * sumGap / n
	return res, nil
}

func sortJobs(jobs []Fig6JobResult) {
	for i := 1; i < len(jobs); i++ {
		for j := i; j > 0 && jobs[j].ID < jobs[j-1].ID; j-- {
			jobs[j], jobs[j-1] = jobs[j-1], jobs[j]
		}
	}
}

// Print renders Figure 6: per-job speedups.
func (r *Fig6Result) Print(w io.Writer) {
	fprintf(w, "== Figure 6: multi-framework batch jobs, speedup under Quasar ==\n")
	fprintf(w, "%-14s %-8s %10s %10s %10s %9s\n", "job", "fw", "target(s)", "quasar(s)", "frmwrk(s)", "speedup%")
	for _, j := range r.Jobs {
		fprintf(w, "%-14s %-8s %10.0f %10.0f %10.0f %9.1f\n",
			j.ID, j.Framework, j.TargetSecs, j.Quasar, j.Baseline, j.SpeedupPct)
	}
	fprintf(w, "mean speedup %.1f%% (paper: 27%%); quasar |gap to target| %.1f%% (paper: 5.3%%)\n",
		r.MeanSpeedupPct, r.MeanQuasarGap)
}

// Fig7 renders Figure 7, the cluster utilization of the same run.
func (r *Fig6Result) Fig7(w io.Writer) {
	fprintf(w, "== Figure 7: cluster utilization ==\n")
	fprintf(w, "quasar mean CPU utilization:    %5.1f%% (paper: 62%%)\n", r.QuasarUtilPct)
	fprintf(w, "framework schedulers:           %5.1f%% (paper: 34%%)\n", r.BaselineUtilPct)
}
