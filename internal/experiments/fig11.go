package experiments

import (
	"io"
	"math"

	"quasar/internal/cluster"
	"quasar/internal/core"
	"quasar/internal/loadgen"
	"quasar/internal/metrics"
	"quasar/internal/par"
	"quasar/internal/perfmodel"
	"quasar/internal/workload"
)

// Fig11Config sizes the large-scale cloud-provider scenario (§6.5): 1200
// workloads of every type submitted in random order to 200 dedicated EC2
// servers with 1 s inter-arrival; all workloads have equal priority (no
// best-effort); admission control prevents oversubscription.
type Fig11Config struct {
	Workloads   int
	Seed        int64
	HorizonSecs float64
	// Managers to compare; default is the paper's three.
	Managers []ManagerKind
}

// DefaultFig11Config matches the paper.
func DefaultFig11Config() Fig11Config {
	return Fig11Config{
		Workloads:   1200,
		Seed:        37,
		HorizonSecs: 26000,
		Managers:    []ManagerKind{KindQuasar, KindReservationParagon, KindReservationLL},
	}
}

// Fig11Run is one manager's outcome.
type Fig11Run struct {
	Manager string
	// Sorted normalized performance, worst to best (Fig. 11a): batch =
	// target/actual time, services = fraction of QoS-met ticks.
	Normalized []float64
	MeanPerf   float64 // capped at 1 (the "% of target achieved" view)
	// MeanUtilPct is the average CPU utilization during the loaded phase
	// (Fig. 11b-c).
	MeanUtilPct float64
	// AllocatedPct and UsedPct are the time-averaged allocated and
	// actually-used core shares (Fig. 11d).
	AllocatedPct float64
	UsedPct      float64
	Heat         *metrics.Heatmap
}

// Fig11Result is the three-manager comparison.
type Fig11Result struct {
	Runs []Fig11Run
}

// fig11Mix deterministically shuffles a workload mix of every type. The
// composition follows the paper's scenario: mostly single-node batch
// workloads (SPEC/PARSEC-style plus multiprogrammed mixes), a substantial
// analytics contingent, and a set of latency-critical services.
func fig11Mix(n int) []workload.Type {
	var mix []workload.Type
	for i := 0; i < n; i++ {
		switch {
		case i%20 < 11: // 55%
			mix = append(mix, workload.SingleNode)
		case i%20 < 14: // 15%
			mix = append(mix, workload.Hadoop)
		case i%20 < 15: // 5%
			mix = append(mix, workload.Spark)
		case i%20 < 16: // 5%
			mix = append(mix, workload.Storm)
		case i%20 < 18: // 10%
			mix = append(mix, workload.Webserver)
		case i%20 < 19: // 5%
			mix = append(mix, workload.Memcached)
		default: // 5%
			mix = append(mix, workload.Cassandra)
		}
	}
	return mix
}

// clusterAlloc is a small helper for literal allocations.
func clusterAlloc(cores int, memGB float64) cluster.Alloc {
	return cluster.Alloc{Cores: cores, MemoryGB: memGB}
}

// fig11Run executes the scenario under one manager.
func fig11Run(kind ManagerKind, cfg Fig11Config) (*Fig11Run, error) {
	s, err := NewScenario(ScenarioConfig{
		Cluster: EC2x200, Manager: kind, Seed: cfg.Seed, MaxNodes: 4, SeedLib: 3,
		Misestimate: true, TickSecs: 10, Sample: 120,
	})
	if err != nil {
		return nil, err
	}
	mix := fig11Mix(cfg.Workloads)
	// Deterministic shuffle for "random order".
	s.RT.RNG.Stream("mix-shuffle").Shuffle(len(mix), func(i, j int) { mix[i], mix[j] = mix[j], mix[i] })

	var tasks []*core.Task
	loadRNG := s.RT.RNG.Stream("loads")
	for i, tp := range mix {
		at := float64(i) // 1 s inter-arrival
		var spec workload.Spec
		var load loadgen.Pattern
		switch tp.Class() {
		case perfmodel.LatencyCritical:
			spec = workload.Spec{Type: tp, Family: -1, MaxNodes: 2}
		case perfmodel.Analytics:
			spec = workload.Spec{Type: tp, Family: -1, MaxNodes: 2, TargetSlack: 1.8,
				Dataset: workload.Dataset{Name: "mix", SizeGB: 10,
					WorkMult: 0.15 + 0.08*float64(i%4), MemMult: 0.8}}
		default:
			spec = workload.Spec{Type: tp, Family: -1, TargetSlack: 1.5}
		}
		w := s.U.New(spec)
		if tp.Class() == perfmodel.LatencyCritical {
			// The scenario packs ~6 workloads per server, so each service
			// is small: its target is what a couple of median cores can
			// sustain within the latency bound (1200 workloads must fit
			// "without oversubscription under ideal allocation").
			med := &s.U.Platforms[len(s.U.Platforms)/2]
			capSmall := w.CapacityQPS([]perfmodel.NodeAlloc{{Platform: med,
				Alloc: clusterAlloc(2, 4)}})
			w.Target.QPS = 0.6 * w.Genome.QPSAtQoS(capSmall, w.Target.LatencyUS)
			load = loadgen.Noisy{P: loadgen.Fluctuating{
				Min: 0.4 * w.Target.QPS, Max: 0.95 * w.Target.QPS,
				Period: 6000 + 1000*float64(i%5)}, CV: 0.02, Seed: int64(i)}
			_ = loadRNG
		}
		tasks = append(tasks, s.RT.Submit(w, at, load))
	}
	s.RT.Run(cfg.HorizonSecs)
	s.RT.Stop()

	run := &Fig11Run{Manager: kind.String(), Heat: s.RT.CPUHeat}
	tracker := metrics.NewTargetTracker()
	for _, t := range tasks {
		v := PerfNormalizedToTarget(s.RT, t)
		if math.IsNaN(v) { // best-effort (none here)
			continue
		}
		tracker.Record(t.W.ID, v)
	}
	run.Normalized = tracker.Sorted()
	run.MeanPerf = tracker.Mean(1.0)

	// Utilization during the loaded phase: between the end of submissions
	// and 80% of the horizon.
	lo := float64(cfg.Workloads)
	hi := cfg.HorizonSecs * 0.8
	sum, n := 0.0, 0
	sumAlloc, sumUsed, nA := 0.0, 0.0, 0
	for i, ts := range s.RT.CPUHeat.Times {
		if ts < lo || ts > hi {
			continue
		}
		for _, v := range s.RT.CPUHeat.Cells[i] {
			sum += v
			n++
		}
	}
	for i, ts := range s.RT.AllocSeries.Times {
		if ts < lo || ts > hi {
			continue
		}
		sumAlloc += s.RT.AllocSeries.Vals[i]
		sumUsed += s.RT.UsedSeries.Vals[i]
		nA++
	}
	if n > 0 {
		run.MeanUtilPct = 100 * sum / float64(n)
	}
	if nA > 0 {
		run.AllocatedPct = 100 * sumAlloc / float64(nA)
		run.UsedPct = 100 * sumUsed / float64(nA)
	}
	return run, nil
}

// Fig11 runs the comparison. Each manager simulates its own scenario from
// the same seed, so the three runs are independent and fan out across
// workers; results land in manager order.
func Fig11(cfg Fig11Config) (*Fig11Result, error) {
	if len(cfg.Managers) == 0 {
		cfg.Managers = DefaultFig11Config().Managers
	}
	runs, err := par.ParMapErr(len(cfg.Managers), func(i int) (*Fig11Run, error) {
		return fig11Run(cfg.Managers[i], cfg)
	})
	if err != nil {
		return nil, err
	}
	res := &Fig11Result{}
	for _, run := range runs {
		res.Runs = append(res.Runs, *run)
	}
	return res, nil
}

// Print renders the four panels.
func (r *Fig11Result) Print(w io.Writer) {
	fprintf(w, "== Figure 11: 1200 workloads on a 200-server EC2 cluster ==\n")
	fprintf(w, "-- (a) performance normalized to target (percentiles, worst to best) --\n")
	fprintf(w, "%-22s", "manager")
	for _, p := range []int{1, 5, 10, 25, 50, 75, 90} {
		fprintf(w, " %5s%d", "p", p)
	}
	fprintf(w, " %6s\n", "mean")
	for _, run := range r.Runs {
		fprintf(w, "%-22s", run.Manager)
		for _, p := range []int{1, 5, 10, 25, 50, 75, 90} {
			idx := p * (len(run.Normalized) - 1) / 100
			v := 0.0
			if len(run.Normalized) > 0 {
				v = run.Normalized[idx]
			}
			fprintf(w, " %6.2f", v)
		}
		fprintf(w, " %6.2f\n", run.MeanPerf)
	}
	fprintf(w, "-- (b,c) mean CPU utilization at steady state --\n")
	for _, run := range r.Runs {
		fprintf(w, "%-22s %5.1f%%\n", run.Manager, run.MeanUtilPct)
	}
	fprintf(w, "-- (d) allocated vs used cores (time average, loaded phase) --\n")
	for _, run := range r.Runs {
		fprintf(w, "%-22s allocated %5.1f%%  used %5.1f%%\n", run.Manager, run.AllocatedPct, run.UsedPct)
	}
	fprintf(w, "paper: quasar 98%% of target / 62%% util; reservation+paragon 83%%;\n")
	fprintf(w, "reservation+LL 62%% of target / 15%% util; quasar over-allocation ~10%%.\n")
}
