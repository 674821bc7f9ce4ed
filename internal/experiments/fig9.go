package experiments

import (
	"io"
	"math"

	"quasar/internal/cluster"
	"quasar/internal/core"
	"quasar/internal/loadgen"
	"quasar/internal/perfmodel"
	"quasar/internal/workload"
)

// Fig9Config sizes the stateful latency-critical services scenario (§6.4):
// memcached (1 TB state, 2.4M QPS peak, 200 µs bound) and Cassandra (4 TB
// state, 60K QPS peak, 30 ms bound) under diurnal load for 24 hours, with
// best-effort fillers, under Quasar vs auto-scaling.
type Fig9Config struct {
	Seed        int64
	HorizonSecs float64 // 24 h in the paper
	BestEffort  int
	// MemcachedPeakQPS / CassandraPeakQPS of 0 scale the paper's 2.4M/60K
	// targets to the cluster's actual capacity.
	MemcachedPeakQPS float64
	CassandraPeakQPS float64
}

// DefaultFig9Config matches the paper's 24-hour run.
func DefaultFig9Config() Fig9Config {
	return Fig9Config{Seed: 29, HorizonSecs: 24 * 3600, BestEffort: 1200}
}

// Fig9Service is one service's outcome under one manager.
type Fig9Service struct {
	Manager string
	Service string

	Times      []float64
	OfferedQPS []float64
	Achieved   []float64

	QoSMetFrac     float64
	TrackingErrPct float64
	LatencyP99US   float64 // overall 99th percentile of per-tick p99 samples
}

// Fig10Window is one 6-hour utilization snapshot (Fig. 10).
type Fig10Window struct {
	Label   string
	CPUPct  float64
	MemPct  float64
	DiskPct float64
}

// Fig9Result carries Figure 9 and the Figure 10 snapshots for the Quasar
// run.
type Fig9Result struct {
	Services []Fig9Service
	Windows  []Fig10Window // Quasar run
}

// fig9Service builds one of the two services with the paper's constraints,
// scaled to cluster capacity when needed.
func fig9Service(s *Scenario, tp workload.Type, peakQPS float64, maxNodes int) *workload.Instance {
	w := s.U.New(workload.Spec{Type: tp, Family: 0, MaxNodes: maxNodes})
	switch tp {
	case workload.Memcached:
		// Memory-based with an aggressive 200 µs p99 constraint.
		w.Genome.ServiceUS = 70
		w.Genome.TailFactor = 1.8
		w.Target.LatencyUS = 200
		// 1 TB of cached state spread over the fleet: memcached uses much
		// of each node's memory (Fig. 10, middle row).
		w.Genome.MemNeedGB = 18
		w.Genome.MemCurve = 1.2
	case workload.Cassandra:
		// Disk-based with a 30 ms constraint.
		w.Genome.ServiceUS = 9000
		w.Genome.TailFactor = 1.6
		w.Target.LatencyUS = 30000
	}
	// Size the peak to what maxNodes *median* machines sustain within the
	// bound: feasible for the auto-scaler's fleet, comfortably below what
	// Quasar can assemble from better platforms.
	med := s.U.Platforms[len(s.U.Platforms)/2]
	nodes := make([]perfmodel.NodeAlloc, maxNodes)
	for i := range nodes {
		nodes[i] = perfmodel.NodeAlloc{Platform: &med,
			Alloc: cluster.Alloc{Cores: med.Cores, MemoryGB: med.MemoryGB}}
	}
	capMed := w.CapacityQPS(nodes)
	feasible := 0.8 * w.Genome.QPSAtQoS(capMed, w.Target.LatencyUS)
	if peakQPS <= 0 || peakQPS > feasible {
		peakQPS = feasible
	}
	w.Target.QPS = peakQPS
	return w
}

// fig9Run executes the 24-hour scenario under one manager.
func fig9Run(kind ManagerKind, cfg Fig9Config) ([]Fig9Service, []Fig10Window, error) {
	s, err := NewScenario(ScenarioConfig{
		Cluster: Local40, Manager: kind, Seed: cfg.Seed, MaxNodes: 16, SeedLib: 3,
		TickSecs: 10, Sample: 300,
	})
	if err != nil {
		return nil, nil, err
	}
	mc := fig9Service(s, workload.Memcached, cfg.MemcachedPeakQPS, 16)
	cs := fig9Service(s, workload.Cassandra, cfg.CassandraPeakQPS, 12)

	mcLoad := loadgen.Noisy{P: loadgen.Diurnal{
		Min: 0.25 * mc.Target.QPS, Max: mc.Target.QPS, PeakHour: 15}, CV: 0.02, Seed: 4}
	csLoad := loadgen.Noisy{P: loadgen.Diurnal{
		Min: 0.25 * cs.Target.QPS, Max: cs.Target.QPS, PeakHour: 20}, CV: 0.02, Seed: 5}

	mcTask := s.RT.Submit(mc, 0, mcLoad)
	csTask := s.RT.Submit(cs, 10, csLoad)

	beGap := cfg.HorizonSecs * 0.9 / float64(max(cfg.BestEffort, 1))
	for i := 0; i < cfg.BestEffort; i++ {
		be := s.U.New(workload.Spec{Type: workload.SingleNode, Family: -1, BestEffort: true})
		s.RT.Submit(be, float64(i)*beGap, nil)
	}

	record := map[string]*Fig9Service{
		mc.ID: {Manager: kind.String(), Service: "memcached"},
		cs.ID: {Manager: kind.String(), Service: "cassandra"},
	}
	stop := s.RT.Eng.Ticker(300, 300, func(now float64) {
		for id, task := range map[string]*core.Task{mc.ID: mcTask, cs.ID: csTask} {
			rec := record[id]
			rec.Times = append(rec.Times, now)
			rec.OfferedQPS = append(rec.OfferedQPS, task.LastOfferedQPS)
			rec.Achieved = append(rec.Achieved, task.LastAchievedQPS)
		}
	})
	s.RT.Run(cfg.HorizonSecs)
	stop()
	s.RT.Stop()

	var out []Fig9Service
	for _, pair := range []struct {
		task *core.Task
		rec  *Fig9Service
	}{{mcTask, record[mc.ID]}, {csTask, record[cs.ID]}} {
		rec := pair.rec
		rec.QoSMetFrac = pair.task.QoSFrac.MeanBetween(1800, cfg.HorizonSecs)
		rec.LatencyP99US = pair.task.LatencyDist.Percentile(99)
		sum, n := 0.0, 0
		for i := range rec.Times {
			if rec.Times[i] < 1800 || rec.OfferedQPS[i] <= 0 {
				continue
			}
			sum += math.Abs(rec.Achieved[i]-rec.OfferedQPS[i]) / rec.OfferedQPS[i]
			n++
		}
		if n > 0 {
			rec.TrackingErrPct = 100 * sum / float64(n)
		}
		out = append(out, *rec)
	}

	// Fig. 10: four 6-hour utilization windows.
	var windows []Fig10Window
	qt := cfg.HorizonSecs / 4
	labels := []string{"00:00-06:00", "06:00-12:00", "12:00-18:00", "18:00-24:00"}
	for i := 0; i < 4; i++ {
		mid := (float64(i) + 0.5) * qt
		windows = append(windows, Fig10Window{
			Label:   labels[i],
			CPUPct:  100 * s.RT.CPUHeat.MeanAt(mid),
			MemPct:  100 * s.RT.MemHeat.MeanAt(mid),
			DiskPct: 100 * s.RT.DiskHeat.MeanAt(mid),
		})
	}
	return out, windows, nil
}

// Fig9 runs the scenario under Quasar and the auto-scaler.
func Fig9(cfg Fig9Config) (*Fig9Result, error) {
	res := &Fig9Result{}
	qs, windows, err := fig9Run(KindQuasar, cfg)
	if err != nil {
		return nil, err
	}
	res.Services = append(res.Services, qs...)
	res.Windows = windows
	as, _, err := fig9Run(KindAutoscale, cfg)
	if err != nil {
		return nil, err
	}
	res.Services = append(res.Services, as...)
	return res, nil
}

// Print renders Figure 9: per-service QoS over the day.
func (r *Fig9Result) Print(w io.Writer) {
	fprintf(w, "== Figure 9: stateful latency-critical services over 24h ==\n")
	fprintf(w, "%-11s %-10s %13s %9s %12s\n", "service", "manager", "QPS-tracking", "QoS met", "p99")
	for _, s := range r.Services {
		unit := "us"
		p99 := s.LatencyP99US
		if p99 > 1000 {
			p99, unit = p99/1000, "ms"
		}
		fprintf(w, "%-11s %-10s %12.1f%% %8.1f%% %9.1f%s\n",
			s.Service, s.Manager, s.TrackingErrPct, 100*s.QoSMetFrac, p99, unit)
	}
	fprintf(w, "paper: quasar meets latency QoS for 98.8%%/98.6%% of requests (mc/cassandra);\n")
	fprintf(w, "autoscale 80%%/93%%, and degrades throughput 24%%/12%%.\n")
}

// Fig10 renders Figure 10, the utilization snapshots of the same run.
func (r *Fig9Result) Fig10(w io.Writer) {
	fprintf(w, "== Figure 10: utilization snapshots (quasar run) ==\n")
	fprintf(w, "%-13s %8s %8s %8s\n", "window", "cpu%", "mem%", "disk%")
	for _, win := range r.Windows {
		fprintf(w, "%-13s %8.1f %8.1f %8.1f\n", win.Label, win.CPUPct, win.MemPct, win.DiskPct)
	}
}
