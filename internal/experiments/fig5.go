package experiments

import (
	"io"
	"math"

	"quasar/internal/core"
	"quasar/internal/workload"
)

// Fig5Config sizes the single-batch-job scenario (§6.1).
type Fig5Config struct {
	Jobs     int // 10 in the paper (H1-H10)
	Seed     int64
	MaxHours float64 // per-job simulation budget
}

// DefaultFig5Config matches the paper.
func DefaultFig5Config() Fig5Config {
	return Fig5Config{Jobs: 10, Seed: 11, MaxHours: 12}
}

// Fig5Job is one Hadoop job's outcome under both managers.
type Fig5Job struct {
	Name          string
	DatasetGB     float64
	TargetSecs    float64
	QuasarSecs    float64
	BaselineSecs  float64
	SpeedupPct    float64 // execution-time reduction vs the Hadoop scheduler
	QuasarGapPct  float64 // distance from the target (positive = slower)
	HadoopGapPct  float64
	QuasarConfig  *workload.FrameworkConfig
	QuasarPlats   []string
	BaselinePlats []string
}

// Fig5Result is the single-batch-job comparison, which also carries
// Table 3 (the parameter settings for job H8).
type Fig5Result struct {
	Jobs []Fig5Job
	// MeanSpeedupPct and MeanQuasarGapPct summarize like §6.1 (29% and
	// 5.8% in the paper).
	MeanSpeedupPct   float64
	MeanQuasarGapPct float64
	MeanHadoopGapPct float64
}

// fig5Datasets returns the H1-H10 input datasets, 1-900 GB as in §5.
func fig5Datasets() []workload.Dataset {
	return []workload.Dataset{
		{Name: "h1-netflix", SizeGB: 2.1, WorkMult: 3.0, MemMult: 0.7},
		{Name: "h2-small", SizeGB: 1, WorkMult: 2.4, MemMult: 0.6},
		{Name: "h3-mid", SizeGB: 10, WorkMult: 4.8, MemMult: 0.9},
		{Name: "h4-mid", SizeGB: 25, WorkMult: 6.0, MemMult: 1.0},
		{Name: "h5-wiki", SizeGB: 55, WorkMult: 7.8, MemMult: 1.2},
		{Name: "h6-large", SizeGB: 120, WorkMult: 9.6, MemMult: 1.3},
		{Name: "h7-large", SizeGB: 250, WorkMult: 11.4, MemMult: 1.5},
		{Name: "h8-recsys", SizeGB: 20, WorkMult: 6.0, MemMult: 1.1},
		{Name: "h9-huge", SizeGB: 500, WorkMult: 14.4, MemMult: 1.7},
		{Name: "h10-huge", SizeGB: 900, WorkMult: 18.0, MemMult: 2.0},
	}
}

// runSingleJob runs one Hadoop job alone on the 40-server cluster under the
// given manager and returns its completion time and placement facts.
func runSingleJob(kind ManagerKind, jobIdx int, cfg Fig5Config) (secs float64, target float64, plats []string, tuned *workload.FrameworkConfig, err error) {
	// Both managers and the oracle target share the same scale-out budget
	// (4 nodes: the local cluster has 4 servers of each platform), so the
	// target is a true lower bound on execution time.
	s, err := NewScenario(ScenarioConfig{
		Cluster: Local40, Manager: kind, Seed: cfg.Seed, MaxNodes: 4, SeedLib: 3,
	})
	if err != nil {
		return 0, 0, nil, nil, err
	}
	ds := fig5Datasets()[jobIdx]
	// Same family per job index across managers; the universe is
	// deterministic per seed, so the genome is identical for both runs.
	w := s.U.New(workload.Spec{
		Type: workload.Hadoop, Family: jobIdx % 3, Dataset: ds,
		MaxNodes: 4, TargetSlack: 1.0,
	})
	task := s.RT.Submit(w, 0, nil)
	horizon := cfg.MaxHours * 3600
	s.RT.Run(horizon)
	s.RT.Stop()
	if task.Status != core.StatusCompleted {
		// Did not finish within budget; report the projected time.
		frac := s.RT.ProgressFraction(task)
		if frac <= 0 {
			frac = 1e-6
		}
		secs = horizon / frac
	} else {
		secs = task.DoneAt - task.SubmitAt
	}
	return secs, w.Target.CompletionSecs, task.UsedPlatforms, w.Config, nil
}

// Fig5 runs each job under Quasar and under the Hadoop self-scheduler.
func Fig5(cfg Fig5Config) (*Fig5Result, error) {
	res := &Fig5Result{}
	var sumSpeed, sumQGap, sumHGap float64
	for j := 0; j < cfg.Jobs; j++ {
		qSecs, target, qPlats, qCfg, err := runSingleJob(KindQuasar, j, cfg)
		if err != nil {
			return nil, err
		}
		bSecs, _, bPlats, _, err := runSingleJob(KindFrameworkSelf, j, cfg)
		if err != nil {
			return nil, err
		}
		job := Fig5Job{
			Name:          jobName(j),
			DatasetGB:     fig5Datasets()[j].SizeGB,
			TargetSecs:    target,
			QuasarSecs:    qSecs,
			BaselineSecs:  bSecs,
			SpeedupPct:    100 * (bSecs - qSecs) / bSecs,
			QuasarGapPct:  100 * (qSecs - target) / target,
			HadoopGapPct:  100 * (bSecs - target) / target,
			QuasarConfig:  qCfg,
			QuasarPlats:   qPlats,
			BaselinePlats: bPlats,
		}
		res.Jobs = append(res.Jobs, job)
		sumSpeed += job.SpeedupPct
		sumQGap += math.Abs(job.QuasarGapPct)
		sumHGap += math.Abs(job.HadoopGapPct)
	}
	n := float64(len(res.Jobs))
	res.MeanSpeedupPct = sumSpeed / n
	res.MeanQuasarGapPct = sumQGap / n
	res.MeanHadoopGapPct = sumHGap / n
	return res, nil
}

func jobName(j int) string {
	return "H" + string(rune('1'+j%9)) + map[bool]string{true: "0", false: ""}[j == 9]
}

// Print renders Figure 5 and the summary.
func (r *Fig5Result) Print(w io.Writer) {
	fprintf(w, "== Figure 5: single Hadoop jobs, Quasar vs the Hadoop scheduler ==\n")
	fprintf(w, "%-5s %8s %10s %10s %10s %9s %8s %8s\n",
		"job", "data(GB)", "target(s)", "quasar(s)", "hadoop(s)", "speedup%", "qGap%", "hGap%")
	for _, j := range r.Jobs {
		fprintf(w, "%-5s %8.0f %10.0f %10.0f %10.0f %9.1f %8.1f %8.1f\n",
			j.Name, j.DatasetGB, j.TargetSecs, j.QuasarSecs, j.BaselineSecs,
			j.SpeedupPct, j.QuasarGapPct, j.HadoopGapPct)
	}
	fprintf(w, "mean speedup %.1f%% (paper: 29%%); |gap to target| quasar %.1f%% (paper: 5.8%%), hadoop %.1f%% (paper: 23%%)\n",
		r.MeanSpeedupPct, r.MeanQuasarGapPct, r.MeanHadoopGapPct)
}

// Table3 renders the parameter settings for job H8 (index 7) from a Fig5
// run.
func (r *Fig5Result) Table3(w io.Writer) {
	if len(r.Jobs) < 8 {
		fprintf(w, "== Table 3: requires at least 8 jobs ==\n")
		return
	}
	j := r.Jobs[7]
	def := workload.DefaultHadoopConfig()
	q := j.QuasarConfig
	if q == nil {
		c := def
		q = &c
	}
	fprintf(w, "== Table 3: parameter settings for job H8 ==\n")
	fprintf(w, "%-16s %-14s %-14s\n", "parameter", "quasar", "hadoop")
	fprintf(w, "%-16s %-14d %-14d\n", "block size(MB)", q.BlockSizeMB, def.BlockSizeMB)
	fprintf(w, "%-16s %.1f(%s)%6s %.1f(%s)\n", "compression",
		q.Compression.Ratio(), q.Compression, "", def.Compression.Ratio(), def.Compression)
	fprintf(w, "%-16s %-14.2f %-14.2f\n", "heapsize(GB)", q.HeapsizeGB, def.HeapsizeGB)
	fprintf(w, "%-16s %-14d %-14d\n", "replication", q.Replication, def.Replication)
	fprintf(w, "%-16s %-14d %-14d\n", "mappers/node", q.MappersPerNode, def.MappersPerNode)
	fprintf(w, "%-16s %-14s %-14s\n", "server types", joinStrings(j.QuasarPlats), joinStrings(j.BaselinePlats))
}

func joinStrings(ss []string) string {
	out := ""
	for i, s := range ss {
		if i > 0 {
			out += "-"
		}
		out += s
	}
	if out == "" {
		out = "-"
	}
	return out
}
