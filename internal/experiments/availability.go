package experiments

import (
	"io"

	"quasar/internal/chaos"
	"quasar/internal/core"
	"quasar/internal/loadgen"
	"quasar/internal/perfmodel"
	"quasar/internal/workload"
)

// AttachFaults enables the heartbeat failure detector and arms a fault plan
// on a built scenario. Call it after NewScenario and before Run: the
// injector's RNG stream derives from the runtime RNG here, so the relative
// order of this call and workload submission is part of the scenario's
// deterministic identity.
func (s *Scenario) AttachFaults(plan *chaos.Plan, det core.DetectorOptions) (*chaos.Injector, error) {
	s.RT.EnableFailureDetector(det)
	inj, err := chaos.NewInjector(s.RT.Eng, s.RT, plan, s.RT.RNG.Stream("chaos"))
	if err != nil {
		return nil, err
	}
	inj.Start()
	return inj, nil
}

// AvailabilityConfig sizes the availability-under-faults experiment: a
// Quasar run on the local cluster with a fault storm injected, reporting
// QoS-met %, mean time to recovery, and the displaced-work half-life.
type AvailabilityConfig struct {
	Hadoop, Spark int
	Services      int
	SingleNode    int
	BestEffort    int
	HorizonSecs   float64
	Seed          int64
	Plan          *chaos.Plan          // nil = chaos.DefaultStormPlan()
	Detector      core.DetectorOptions // zero = defaults (10s/2/4)
	Trace         bool
}

// DefaultAvailabilityConfig returns the canned fault-storm scenario.
func DefaultAvailabilityConfig() AvailabilityConfig {
	return AvailabilityConfig{
		Hadoop: 4, Spark: 2, Services: 6, SingleNode: 10, BestEffort: 16,
		HorizonSecs: 16000, Seed: 7,
		Detector: core.DefaultDetectorOptions(),
	}
}

// AvailabilityResult is what the fault storm left behind. Every field is
// derived from simulation state, so it is byte-identical across repeat
// runs.
type AvailabilityResult struct {
	Workloads int     `json:"workloads"`
	Services  int     `json:"services"`
	Horizon   float64 `json:"horizon_secs"`

	// Injection side.
	Faults chaos.Stats `json:"faults"`

	// QoSMetFrac is the mean fraction of post-warm-up ticks on which
	// latency-critical services met QoS, averaged over services.
	QoSMetFrac float64 `json:"qos_met_frac"`

	// Recovery side (see core.RecoveryStats for field semantics).
	Recovery core.RecoveryStats `json:"recovery"`
	// MTTRSecs is the mean displacement→recovery delay; HalfLifeSecs the
	// median (the displaced-work half-life).
	MTTRSecs     float64 `json:"mttr_secs"`
	HalfLifeSecs float64 `json:"half_life_secs"`
	// LCNoReprofileFrac is the fraction of displaced latency-critical
	// workloads re-admitted without re-profiling (acceptance bar: ≥ 0.9).
	LCNoReprofileFrac float64 `json:"lc_no_reprofile_frac"`

	// Surviving capacity at the end of the run.
	LiveServers int `json:"live_servers"`
	TotalServs  int `json:"total_servers"`
}

// availabilityScenario builds, arms, and submits the availability run
// without executing it; the trace tests drive the engine themselves.
func availabilityScenario(cfg AvailabilityConfig) (*Scenario, *chaos.Injector, error) {
	s, err := NewScenario(ScenarioConfig{
		Cluster: Local40, Manager: KindQuasar, Seed: cfg.Seed,
		MaxNodes: 4, SeedLib: 3, Trace: cfg.Trace,
	})
	if err != nil {
		return nil, nil, err
	}
	plan := cfg.Plan
	if plan == nil {
		plan = chaos.DefaultStormPlan()
	}
	inj, err := s.AttachFaults(plan, cfg.Detector)
	if err != nil {
		return nil, nil, err
	}
	submitAvailabilityMix(s, cfg)
	return s, inj, nil
}

// submitAvailabilityMix submits the availability workload mix: batch
// frameworks, fluctuating latency-critical services, single-node jobs, and
// best-effort filler, staggered 5 simulated seconds apart.
func submitAvailabilityMix(s *Scenario, cfg AvailabilityConfig) {
	at := 0.0
	submit := func(spec workload.Spec) {
		w := s.U.New(spec)
		var load loadgen.Pattern
		if w.Type.Class() == perfmodel.LatencyCritical {
			load = ServiceLoad(w)
		}
		s.RT.Submit(w, at, load)
		at += 5
	}
	for i := 0; i < cfg.Hadoop; i++ {
		submit(workload.Spec{Type: workload.Hadoop, Family: i % 3, MaxNodes: 3, TargetSlack: 1.4,
			Dataset: workload.Dataset{Name: "avail", SizeGB: 20, WorkMult: 1.5, MemMult: 1}})
	}
	for i := 0; i < cfg.Spark; i++ {
		submit(workload.Spec{Type: workload.Spark, Family: i % 3, MaxNodes: 3, TargetSlack: 1.4,
			Dataset: workload.Dataset{Name: "avail", SizeGB: 20, WorkMult: 4, MemMult: 1}})
	}
	svcTypes := []workload.Type{workload.Webserver, workload.Memcached, workload.Cassandra}
	for i := 0; i < cfg.Services; i++ {
		submit(workload.Spec{Type: svcTypes[i%3], Family: -1, MaxNodes: 3})
	}
	for i := 0; i < cfg.SingleNode; i++ {
		submit(workload.Spec{Type: workload.SingleNode, Family: -1, TargetSlack: 1.3})
	}
	for i := 0; i < cfg.BestEffort; i++ {
		submit(workload.Spec{Type: workload.SingleNode, Family: -1, BestEffort: true})
	}
}

// Availability runs the fault-storm scenario to completion and aggregates
// the result.
func Availability(cfg AvailabilityConfig) (*AvailabilityResult, error) {
	s, inj, err := availabilityScenario(cfg)
	if err != nil {
		return nil, err
	}
	s.RT.Run(cfg.HorizonSecs)
	s.RT.Stop()
	return availabilityResult(cfg, s, inj), nil
}

func availabilityResult(cfg AvailabilityConfig, s *Scenario, inj *chaos.Injector) *AvailabilityResult {
	res := &AvailabilityResult{
		Workloads:  cfg.Hadoop + cfg.Spark + cfg.Services + cfg.SingleNode + cfg.BestEffort,
		Services:   cfg.Services,
		Horizon:    cfg.HorizonSecs,
		Faults:     inj.Stats(),
		Recovery:   s.Q.Recovery(),
		TotalServs: len(s.RT.Cl.Servers),
	}
	res.LiveServers = s.RT.Cl.NumLive()
	res.MTTRSecs = res.Recovery.MTTR()
	res.HalfLifeSecs = res.Recovery.HalfLife()
	if res.Recovery.DisplacedLC > 0 {
		res.LCNoReprofileFrac = float64(res.Recovery.ReadmittedLCNoReprofile) /
			float64(res.Recovery.DisplacedLC)
	}
	// QoS met: mean over latency-critical services of their post-warm-up
	// QoS-met tick fraction.
	sum, n := 0.0, 0
	for _, t := range s.RT.Tasks() {
		if t.W.BestEffort || t.W.Type.Class() != perfmodel.LatencyCritical {
			continue
		}
		sum += PerfNormalizedToTarget(s.RT, t)
		n++
	}
	if n > 0 {
		res.QoSMetFrac = sum / float64(n)
	}
	return res
}

// Print renders the availability report.
func (r *AvailabilityResult) Print(w io.Writer) {
	fprintf(w, "== Availability under fault storm (Quasar, local cluster) ==\n")
	fprintf(w, "%d workloads (%d services), %.0fs horizon\n", r.Workloads, r.Services, r.Horizon)
	fprintf(w, "faults applied: %d crashes, %d slowdowns, %d partitions (%d restarts, %d heals, %d skipped)\n",
		r.Faults.Crashes, r.Faults.Slowdowns, r.Faults.Partitions,
		r.Faults.Restarts, r.Faults.Heals, r.Faults.Skipped)
	fprintf(w, "live servers at end: %d/%d\n", r.LiveServers, r.TotalServs)
	fprintf(w, "QoS met: %.1f%% of service ticks\n", 100*r.QoSMetFrac)
	fprintf(w, "displaced: %d workloads (%d latency-critical), %d nodes lost\n",
		r.Recovery.Displaced, r.Recovery.DisplacedLC, r.Recovery.NodesLost)
	fprintf(w, "re-admitted: %d (%d without re-profiling, %d degraded admissions)\n",
		r.Recovery.Readmitted, r.Recovery.ReadmittedNoReprofile, r.Recovery.DegradedAdmissions)
	fprintf(w, "LC re-admitted without re-profiling: %d/%d (%.0f%%)\n",
		r.Recovery.ReadmittedLCNoReprofile, r.Recovery.DisplacedLC, 100*r.LCNoReprofileFrac)
	fprintf(w, "MTTR: %.0fs mean, %.0fs half-life\n", r.MTTRSecs, r.HalfLifeSecs)
}
