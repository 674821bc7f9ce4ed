package experiments

import (
	"io"

	"quasar/internal/cluster"
	"quasar/internal/core"
	"quasar/internal/loadgen"
	"quasar/internal/perfmodel"
	"quasar/internal/workload"
)

// Fig8Config sizes the low-latency webservice scenario (§6.3): a
// HotCRP-like web service under flat, fluctuating, and spiking traffic,
// with best-effort fillers soaking idle capacity, under Quasar vs an
// auto-scaling manager.
type Fig8Config struct {
	Seed        int64
	HorizonSecs float64
	BestEffort  int
	TargetQPS   float64 // 0 = derive from the service's capacity
}

// DefaultFig8Config matches the paper's ~400-minute runs.
func DefaultFig8Config() Fig8Config {
	return Fig8Config{Seed: 23, HorizonSecs: 24000, BestEffort: 500}
}

// Fig8Series is one traffic pattern's outcome under one manager.
type Fig8Series struct {
	Manager string
	Pattern string

	Times      []float64
	TargetQPS  []float64
	Achieved   []float64
	QoSMetFrac float64 // fraction of queries meeting the latency QoS
	// TrackingErrPct is the mean |achieved-offered|/offered during the
	// run (after warm-up).
	TrackingErrPct float64

	// CoreSeries tracks cores allocated to the service and to best-effort
	// work (Fig. 8c).
	ServiceCores    []float64
	BestEffortCores []float64
}

// Fig8Result is the full figure: three patterns x two managers.
type Fig8Result struct {
	Series []Fig8Series
}

// fig8Patterns builds the three traffic shapes around a target QPS.
func fig8Patterns(target float64, horizon float64) map[string]loadgen.Pattern {
	return map[string]loadgen.Pattern{
		"flat": loadgen.Noisy{P: loadgen.Flat{QPS: target * 0.8}, CV: 0.03, Seed: 1},
		"fluctuating": loadgen.Noisy{P: loadgen.Fluctuating{
			Min: 0.2 * target, Max: target, Period: horizon / 4}, CV: 0.03, Seed: 2},
		"spike": loadgen.Noisy{P: loadgen.Spike{
			Base: 0.25 * target, Peak: target, Start: horizon * 0.45,
			Duration: horizon * 0.1, RampSecs: 120}, CV: 0.03, Seed: 3},
	}
}

// fig8Run executes one (manager, pattern) cell.
func fig8Run(kind ManagerKind, patName string, cfg Fig8Config) (*Fig8Series, error) {
	s, err := NewScenario(ScenarioConfig{
		Cluster: Local40, Manager: kind, Seed: cfg.Seed, MaxNodes: 8, SeedLib: 3,
	})
	if err != nil {
		return nil, err
	}
	w := s.U.New(workload.Spec{Type: workload.Webserver, Family: 0, MaxNodes: 8, QPS: cfg.TargetQPS})
	// HotCRP's 100 ms per-request bound corresponds to a knee around 60%
	// utilization — below the auto-scaler's 70% load trigger, which is
	// exactly why load-triggered scaling misses the latency QoS.
	lat := w.Genome.ServiceUS * 5
	w.Target.LatencyUS = lat
	if cfg.TargetQPS <= 0 {
		// The paper's HotCRP deployment replicates across 1-8 servers;
		// size the peak traffic to what 8 median machines can sustain
		// within the bound, so both managers have a feasible job.
		med := s.U.Platforms[len(s.U.Platforms)/2]
		nodes := make([]perfmodel.NodeAlloc, 8)
		for i := range nodes {
			nodes[i] = perfmodel.NodeAlloc{Platform: &med,
				Alloc: cluster.Alloc{Cores: med.Cores, MemoryGB: med.MemoryGB}}
		}
		capMed := w.CapacityQPS(nodes)
		w.Target.QPS = 0.8 * w.Genome.QPSAtQoS(capMed, lat)
	}
	pattern := fig8Patterns(w.Target.QPS, cfg.HorizonSecs)[patName]
	task := s.RT.Submit(w, 0, pattern)

	// Best-effort fillers stream over the run.
	beGap := cfg.HorizonSecs * 0.8 / float64(max(cfg.BestEffort, 1))
	var beTasks []*core.Task
	for i := 0; i < cfg.BestEffort; i++ {
		be := s.U.New(workload.Spec{Type: workload.SingleNode, Family: -1, BestEffort: true})
		beTasks = append(beTasks, s.RT.Submit(be, float64(i)*beGap, nil))
	}

	out := &Fig8Series{Manager: kind.String(), Pattern: patName}
	stop := s.RT.Eng.Ticker(60, 60, func(now float64) {
		out.Times = append(out.Times, now)
		out.TargetQPS = append(out.TargetQPS, pattern.Load(now))
		out.Achieved = append(out.Achieved, task.LastAchievedQPS)
		out.ServiceCores = append(out.ServiceCores, float64(task.TotalCores()))
		be := 0
		for _, bt := range beTasks {
			if bt.Status == core.StatusRunning {
				be += bt.TotalCores()
			}
		}
		out.BestEffortCores = append(out.BestEffortCores, float64(be))
	})
	s.RT.Run(cfg.HorizonSecs)
	stop()
	s.RT.Stop()

	out.QoSMetFrac = task.QoSFrac.MeanBetween(600, cfg.HorizonSecs)
	// Tracking error after warm-up.
	sum, n := 0.0, 0
	for i, ts := range out.Times {
		if ts < 600 || out.TargetQPS[i] <= 0 {
			continue
		}
		d := (out.Achieved[i] - out.TargetQPS[i]) / out.TargetQPS[i]
		if d < 0 {
			sum += -d
		} else {
			sum += d
		}
		n++
	}
	if n > 0 {
		out.TrackingErrPct = 100 * sum / float64(n)
	}
	return out, nil
}

// Fig8 runs all six cells.
func Fig8(cfg Fig8Config) (*Fig8Result, error) {
	res := &Fig8Result{}
	for _, pat := range []string{"flat", "fluctuating", "spike"} {
		for _, kind := range []ManagerKind{KindQuasar, KindAutoscale} {
			s, err := fig8Run(kind, pat, cfg)
			if err != nil {
				return nil, err
			}
			res.Series = append(res.Series, *s)
		}
	}
	return res, nil
}

// Print renders the figure's panels.
func (r *Fig8Result) Print(w io.Writer) {
	fprintf(w, "== Figure 8: HotCRP-like webservice under Quasar vs auto-scaling ==\n")
	fprintf(w, "%-12s %-10s %14s %12s\n", "pattern", "manager", "QPS-tracking", "QoS met")
	for _, s := range r.Series {
		fprintf(w, "%-12s %-10s %12.1f%% %11.1f%%\n",
			s.Pattern, s.Manager, s.TrackingErrPct, 100*s.QoSMetFrac)
	}
	// Fig. 8c: core allocation over time for the fluctuating pattern
	// under Quasar.
	for _, s := range r.Series {
		if s.Pattern != "fluctuating" || s.Manager != "quasar" {
			continue
		}
		fprintf(w, "-- (c) cores over time (fluctuating, quasar) --\n")
		fprintf(w, "%-8s %10s %10s %12s\n", "t(min)", "offered", "svc cores", "b-e cores")
		for i := 0; i < len(s.Times); i += max(1, len(s.Times)/16) {
			fprintf(w, "%-8.0f %10.0f %10.0f %12.0f\n",
				s.Times[i]/60, s.TargetQPS[i], s.ServiceCores[i], s.BestEffortCores[i])
		}
	}
	fprintf(w, "paper: quasar tracks QPS within ~4%% and meets QoS for ~99%% of queries;\n")
	fprintf(w, "autoscale lags ~18%% on fluctuating load and violates QoS around the spike.\n")
}
