package experiments

import (
	"bytes"

	"quasar/internal/loadgen"
	"quasar/internal/obs"
	"quasar/internal/workload"
)

// ScaleTrace runs one traced Quasar scenario on a uniform at-scale cluster
// and returns the serialized event log. The trace is the determinism
// contract's witness at scale: the bytes must not depend on the worker count,
// which the determinism tests and the trace-diff-scale lane assert across
// {1, 4, NumCPU} workers.

// ScaleTraceConfig sizes the at-scale determinism run.
type ScaleTraceConfig struct {
	Servers     int     // uniform spread of the local platforms
	Services    int     // latency-critical services under fluctuating load
	Single      int     // single-node batch jobs
	BestEffort  int     // best-effort fillers
	SubmitGap   float64 // simulated seconds between submissions
	HorizonSecs float64 // simulated seconds to run
	Seed        int64
}

// DefaultScaleTraceConfig returns the committed contract point: 1k servers,
// 10k workloads, a horizon just long enough to submit and churn all of them.
func DefaultScaleTraceConfig() ScaleTraceConfig {
	return ScaleTraceConfig{
		Servers:     1000,
		Services:    20,
		Single:      480,
		BestEffort:  9500,
		SubmitGap:   0.02,
		HorizonSecs: 260,
		Seed:        20260808,
	}
}

// runScaleScenario builds the traced scenario (through the given sinks, or
// the default buffer when sinks is nil), submits the mix, and runs the
// horizon. ScaleTrace and the streamed-trace test share this path so they
// compare the same run.
func runScaleScenario(cfg ScaleTraceConfig, sinks []obs.Sink) (*Scenario, error) {
	s, err := NewScenario(ScenarioConfig{
		Servers: cfg.Servers, Manager: KindQuasar, Seed: cfg.Seed,
		MaxNodes: 4, SeedLib: 3, Trace: true, TraceSinks: sinks,
	})
	if err != nil {
		return nil, err
	}
	at := 0.0
	submit := func(spec workload.Spec, load loadgen.Pattern) {
		s.RT.Submit(s.U.New(spec), at, load)
		at += cfg.SubmitGap
	}
	svcTypes := []workload.Type{workload.Webserver, workload.Memcached, workload.Cassandra}
	for i := 0; i < cfg.Services; i++ {
		w := s.U.New(workload.Spec{Type: svcTypes[i%3], Family: -1, MaxNodes: 3})
		s.RT.Submit(w, at, loadgen.Fluctuating{
			Min: 0.4 * w.Target.QPS, Max: 0.9 * w.Target.QPS, Period: 6000})
		at += cfg.SubmitGap
	}
	for i := 0; i < cfg.Single; i++ {
		submit(workload.Spec{Type: workload.SingleNode, Family: -1, TargetSlack: 1.3}, nil)
	}
	for i := 0; i < cfg.BestEffort; i++ {
		submit(workload.Spec{Type: workload.SingleNode, Family: -1, BestEffort: true}, nil)
	}
	s.RT.Run(cfg.HorizonSecs)
	s.RT.Stop()
	return s, nil
}

// ScaleTrace builds the scenario, submits the mix, runs the horizon, and
// returns the JSONL trace bytes from the buffered exporter.
func ScaleTrace(cfg ScaleTraceConfig) ([]byte, error) {
	s, err := runScaleScenario(cfg, nil)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := obs.WriteJSONL(&buf, s.Tracer); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
