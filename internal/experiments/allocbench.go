package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"testing"

	"quasar/internal/classify"
	"quasar/internal/cluster"
	"quasar/internal/loadgen"
	"quasar/internal/obs"
	"quasar/internal/par"
	"quasar/internal/sched"
	"quasar/internal/serve"
	"quasar/internal/sim"
	"quasar/internal/workload"
)

// AllocBench is the dynamic half of the hot-path allocation gate. The static
// half (quasar-lint's hotalloc analyzer) proves every allocation site reachable
// from the hot roots in hotpath.json is annotated; this benchmark measures what
// those roots actually allocate per operation at steady state, using
// testing.AllocsPerRun, and compares the counts against the budgets committed
// in BENCH_alloc.json. A probe exceeding its budget is an allocation
// regression: some change re-introduced per-operation garbage on a path the
// static gate only sees as "annotated".
//
// Budgets are ceilings with headroom, not exact counts — the retained-by-design
// allocations (trace events, heatmap history, returned assignments) legitimately
// vary with scenario phase. Exceeding one means a structural regression (a new
// per-op allocation), not noise.

// AllocBenchConfig sizes the allocation probes.
type AllocBenchConfig struct {
	// Runs is the sample count handed to testing.AllocsPerRun per probe.
	Runs int
	// WarmTicks is how many runtime ticks each scenario executes before
	// probing, so scratch buffers reach steady-state capacity.
	WarmTicks int
	Seed      int64
}

// DefaultAllocBenchConfig returns the committed-baseline settings.
func DefaultAllocBenchConfig() AllocBenchConfig {
	return AllocBenchConfig{Runs: 200, WarmTicks: 400, Seed: 11}
}

// AllocProbe is one measured hot root.
type AllocProbe struct {
	// Name identifies the probe; it is the stable key budgets are matched by.
	Name string `json:"name"`
	// HotRoot is the hotpath.json key the probe exercises (documentation).
	HotRoot string `json:"hot_root"`
	// AllocsPerOp is the measured mean heap allocations per operation.
	AllocsPerOp float64 `json:"allocs_per_op"`
	// Budget is the committed ceiling; AllocsPerOp > Budget is a regression.
	Budget float64 `json:"budget"`
}

// AllocBenchResult is the record committed as BENCH_alloc.json.
type AllocBenchResult struct {
	Runs      int          `json:"runs"`
	WarmTicks int          `json:"warm_ticks"`
	Seed      int64        `json:"seed"`
	Probes    []AllocProbe `json:"probes"`
}

// allocBudgets holds the committed ceilings. They are defined in code (not
// only in BENCH_alloc.json) so a fresh checkout can regenerate the baseline
// file without a previous one to copy budgets from.
var allocBudgets = map[string]float64{
	// One event pop + self-reschedule through the engine freelist: zero
	// steady-state allocations (measured 0.0).
	"sim_step": 1,
	// One scheduling decision: the returned Assignment, its node list, and
	// the tuned framework config are the decision itself (annotated as such);
	// candidate ranking and sizing reuse scheduler-owned scratch
	// (measured 5.0).
	"sched_schedule": 10,
	// One runtime tick over nine steady services: progress accounting and
	// load lookups are allocation-free, and ground truth is rebuilt (one
	// nodesOf slice) only for a service whose servers changed; the residue
	// is monitoring history (retained by design) and the manager's
	// occasional adjustments and reclassifications (measured 13.0).
	"runtime_tick": 28,
	// One runtime tick with the SLO engine attached, sequential fan-out:
	// adds window pushes and health scoring on reused scratch, with
	// per-workload state found by position (measured 15.0).
	"slo_tick": 32,
	// One event through the full trace pipeline — controls, sequencing, and
	// fan-out to a streaming JSONL sink plus a ring flight recorder. The
	// caller's variadic args slice (the ring retains it) and its boxed values
	// are all of it: the streaming sink appends the line into a buffer it reuses,
	// with no reflection and no per-arg scratch (measured 2.0; the sink
	// itself encodes even a full 184-candidate decision with 0, pinned by
	// obs.TestStreamSinkEmitDecisionZeroAlloc).
	"tracer_emit": 5,
	// One journaled admission against a discarding writer: the predicted-ID
	// string and the pending-batch entry are the admission itself; the JSON
	// encoding reuses the encoder's buffer (measured 2.0).
	"serve_admit": 6,
	// One admission-queue drain on a saturated cluster with over a thousand
	// best-effort tasks waiting and nothing that fits: one placement scan,
	// then every entry is kept through the no-fit memo into the reused
	// survivor buffer (measured 0.0).
	"queue_drain": 1,
	// One estimate evaluation (the monitor's per-node, the scheduler's
	// per-candidate step): two table lookups and three exponentials on the
	// stack (measured 0.0).
	"estimates_nodeperf": 1,
}

// simStepProbe builds a self-rescheduling event loop and measures one Step.
func simStepProbe(runs int) float64 {
	eng := sim.NewEngine()
	var tick func()
	tick = func() { eng.After(1, tick) }
	eng.After(1, tick)
	for i := 0; i < 64; i++ { // warm the event freelist
		eng.Step()
	}
	return testing.AllocsPerRun(runs, func() { eng.Step() })
}

// schedScheduleProbe measures one right-sizing decision against a populated
// cluster. Schedule does not mutate the cluster, so repeated calls see
// identical state.
func schedScheduleProbe(runs int, seed int64) (float64, error) {
	platforms := cluster.LocalPlatforms()
	cl, err := cluster.New(platforms, []int{4, 4, 4, 4, 4, 4, 4, 4, 4, 4})
	if err != nil {
		return 0, err
	}
	u := workload.NewUniverse(platforms, seed, 3)
	copts := classify.DefaultOptions()
	copts.MaxNodes = 32
	ceng := classify.NewEngine(platforms, copts, sim.NewRNG(seed+1))
	for _, tp := range []workload.Type{workload.Hadoop, workload.Memcached, workload.SingleNode} {
		for i := 0; i < 3; i++ {
			w := u.New(workload.Spec{Type: tp, Family: -1, MaxNodes: 4})
			ceng.SeedOffline(w, classify.NewGroundTruthProber(w, platforms, sim.NewRNG(seed+int64(i))))
		}
	}
	est := map[string]*classify.Estimates{}
	s := sched.New(cl, sched.DefaultOptions())

	// Residents: occupy part of the cluster so ranking sees pressure.
	for i := 0; i < 10; i++ {
		w := u.New(workload.Spec{Type: workload.SingleNode, Family: -1, MaxNodes: 1})
		es := ceng.Classify(w, classify.NewGroundTruthProber(w, platforms, sim.NewRNG(seed+100+int64(i))))
		est[w.ID] = es
		asn, err := s.Schedule(&sched.Request{
			W: w, Est: es, NeedPerf: 5, MaxNodes: 1, AcceptPartial: true,
			EstOf: func(id string) *classify.Estimates { return est[id] },
		})
		if err != nil {
			return 0, err
		}
		for _, n := range asn.Nodes {
			caused := w.CausedPressure(n.Server.Platform, n.Alloc)
			if _, err := n.Server.Place(w.ID, n.Alloc, caused, w.BestEffort); err != nil {
				return 0, err
			}
		}
	}

	w := u.New(workload.Spec{Type: workload.Hadoop, Family: -1, MaxNodes: 8})
	es := ceng.Classify(w, classify.NewGroundTruthProber(w, platforms, sim.NewRNG(seed+7)))
	est[w.ID] = es
	req := &sched.Request{
		W: w, Est: es, NeedPerf: 20, MaxNodes: 8,
		EstOf: func(id string) *classify.Estimates { return est[id] },
	}
	if _, err := s.Schedule(req); err != nil { // warm scheduler scratch
		return 0, err
	}
	return testing.AllocsPerRun(runs, func() {
		_, _ = s.Schedule(req)
	}), nil
}

// tracerEmitProbe measures one event through the whole trace pipeline at
// steady state: controls active (an off-category filter that the probe's own
// category passes, so the keep path runs), sequence assignment, and fan-out
// to a streaming JSONL sink (real encoding, discarded bytes) plus a ring
// flight recorder. The warm loop fills the ring and grows the sink's line
// buffer first.
func tracerEmitProbe(runs int) float64 {
	now := 0.0
	tr := obs.NewWithSinks(func() float64 { return now },
		obs.NewStreamSinkWriter(io.Discard), obs.NewRingSink(256))
	tr.SetControls(obs.Controls{Category: map[string]obs.Level{"chaos": obs.LevelOff}})
	emit := func(i int) {
		now += 0.001
		tr.Instant("server/7", "runtime", "alloc.probe",
			obs.Arg{Key: "tick", Val: i}, obs.Arg{Key: "load", Val: now})
	}
	for i := 0; i < 512; i++ {
		emit(i)
	}
	i := 0
	return testing.AllocsPerRun(runs, func() {
		i++
		emit(i)
	})
}

// steadyServiceScenario builds a Quasar scenario whose workloads never
// complete (latency-critical services under fluctuating load), so per-tick
// allocation behavior is stationary for the probe's duration.
func steadyServiceScenario(seed int64, withSLO bool) (*Scenario, error) {
	s, err := NewScenario(ScenarioConfig{
		Cluster: Local40, Manager: KindQuasar, Seed: seed,
		MaxNodes: 4, SeedLib: 3, SLO: withSLO,
	})
	if err != nil {
		return nil, err
	}
	svcTypes := []workload.Type{workload.Webserver, workload.Memcached, workload.Cassandra}
	at := 0.0
	for i := 0; i < 9; i++ {
		w := s.U.New(workload.Spec{Type: svcTypes[i%3], Family: -1, MaxNodes: 3})
		load := loadgen.Fluctuating{Min: 0.4 * w.Target.QPS, Max: 0.8 * w.Target.QPS, Period: 6000}
		s.RT.Submit(w, at, load)
		at += 5
	}
	return s, nil
}

// tickProbe advances a warmed scenario one runtime tick per operation.
func tickProbe(cfg AllocBenchConfig, withSLO bool) (float64, error) {
	s, err := steadyServiceScenario(cfg.Seed, withSLO)
	if err != nil {
		return 0, err
	}
	tick := 5.0
	s.RT.Run(float64(cfg.WarmTicks) * tick)
	eng := s.RT.Eng
	return testing.AllocsPerRun(cfg.Runs, func() {
		eng.Run(eng.Now() + tick)
	}), nil
}

// queueDrainProbe measures one drain of Quasar's admission queue at the
// state the drain is hot in: every server full of long-running best-effort
// fillers and more than a thousand further fillers waiting. Nothing fits, so
// repeated drains see identical state. OnServerRestored is the manager's
// bare drain.
func queueDrainProbe(cfg AllocBenchConfig) (float64, error) {
	s, err := NewScenario(ScenarioConfig{
		Cluster: Local40, Manager: KindQuasar, Seed: cfg.Seed, MaxNodes: 4, SeedLib: 3,
	})
	if err != nil {
		return 0, err
	}
	for i := 0; i < 1500; i++ {
		w := s.U.New(workload.Spec{Type: workload.SingleNode, Family: -1, BestEffort: true})
		w.Genome.Work = 1e15
		s.RT.Submit(w, float64(i)*0.01, nil)
	}
	s.RT.Run(30) // all arrived; a few ticks size the drain's two buffers
	if n := s.Q.QueueLen(); n < 1000 {
		return 0, fmt.Errorf("allocbench: queue_drain probe has %d tasks queued, want >= 1000", n)
	}
	return testing.AllocsPerRun(cfg.Runs, func() { s.Q.OnServerRestored(nil) }), nil
}

// nodePerfProbe measures one Estimates.NodePerf on a classified workload,
// cycling platforms and allocations on and off the scale-up grid.
func nodePerfProbe(runs int, seed int64) float64 {
	platforms := cluster.LocalPlatforms()
	u := workload.NewUniverse(platforms, seed, 3)
	ceng := classify.NewEngine(platforms, classify.DefaultOptions(), sim.NewRNG(seed+1))
	for i := 0; i < 3; i++ {
		w := u.New(workload.Spec{Type: workload.Hadoop, Family: -1, MaxNodes: 4})
		ceng.SeedOffline(w, classify.NewGroundTruthProber(w, platforms, sim.NewRNG(seed+int64(i))))
	}
	w := u.New(workload.Spec{Type: workload.Hadoop, Family: -1, MaxNodes: 4})
	es := ceng.Classify(w, classify.NewGroundTruthProber(w, platforms, sim.NewRNG(seed+7)))
	pressure := cluster.ResVec{0.2, 0.1, 0.3}
	i, sum := 0, 0.0
	return testing.AllocsPerRun(runs, func() {
		i++
		p := &platforms[i%len(platforms)]
		sum += es.NodePerf(i%len(platforms), cluster.Alloc{Cores: 1 + i%p.Cores, MemoryGB: p.MemoryGB / float64(1+i%3)}, pressure)
	})
}

// AllocBench runs every probe. Fan-outs run sequentially (one worker) so the
// counts do not depend on GOMAXPROCS or goroutine scheduling.
func AllocBench(cfg AllocBenchConfig) (*AllocBenchResult, error) {
	if cfg.Runs <= 0 {
		cfg.Runs = 200
	}
	if cfg.WarmTicks <= 0 {
		cfg.WarmTicks = 400
	}
	prev := par.Resolve(0)
	par.SetDefaultWorkers(1)
	defer par.SetDefaultWorkers(prev)

	res := &AllocBenchResult{Runs: cfg.Runs, WarmTicks: cfg.WarmTicks, Seed: cfg.Seed}
	add := func(name, root string, allocs float64) {
		res.Probes = append(res.Probes, AllocProbe{
			Name: name, HotRoot: root, AllocsPerOp: allocs, Budget: allocBudgets[name],
		})
	}

	add("sim_step", "quasar/internal/sim.(*Engine).Step", simStepProbe(cfg.Runs))

	allocs, err := schedScheduleProbe(cfg.Runs, cfg.Seed)
	if err != nil {
		return nil, err
	}
	add("sched_schedule", "quasar/internal/sched.(*Scheduler).Schedule", allocs)

	allocs, err = tickProbe(cfg, false)
	if err != nil {
		return nil, err
	}
	add("runtime_tick", "quasar/internal/core.(*Runtime).tick", allocs)

	allocs, err = tickProbe(cfg, true)
	if err != nil {
		return nil, err
	}
	add("slo_tick", "quasar/internal/slo.(*Engine).onTick", allocs)

	add("tracer_emit", "quasar/internal/obs.(*Tracer).emit", tracerEmitProbe(cfg.Runs))

	allocs, err = serveAdmitProbe(cfg.Runs)
	if err != nil {
		return nil, err
	}
	add("serve_admit", "quasar/internal/serve.(*Journal).Admit", allocs)

	allocs, err = queueDrainProbe(cfg)
	if err != nil {
		return nil, err
	}
	add("queue_drain", "quasar/internal/core.(*WaitQueue).Drain", allocs)

	add("estimates_nodeperf", "quasar/internal/classify.(*Estimates).NodePerf", nodePerfProbe(cfg.Runs, cfg.Seed))

	return res, nil
}

// serveAdmitProbe measures one journaled admission — stamp, encode, append —
// against a discarding writer, the synchronous work every live HTTP submit
// pays under the journal lock.
func serveAdmitProbe(runs int) (float64, error) {
	j := serve.NewJournalWriter(io.Discard, serve.Config{}, 1)
	e := serve.Entry{Kind: serve.KindSubmit, Submit: &serve.SubmitRequest{
		Type: "single-node", Family: -1, BestEffort: true,
	}}
	for i := 0; i < 64; i++ { // warm the encoder and pending-batch storage
		if _, err := j.Admit(e); err != nil {
			return 0, err
		}
	}
	return testing.AllocsPerRun(runs, func() { _, _ = j.Admit(e) }), nil
}

// Check compares measured counts against budgets and returns one error per
// regression (nil when all probes are within budget).
func (r *AllocBenchResult) Check() error {
	var bad []string
	for _, p := range r.Probes {
		if p.Budget <= 0 {
			bad = append(bad, fmt.Sprintf("%s: no budget defined", p.Name))
			continue
		}
		if p.AllocsPerOp > p.Budget {
			bad = append(bad, fmt.Sprintf("%s: %.1f allocs/op exceeds budget %.0f",
				p.Name, p.AllocsPerOp, p.Budget))
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("allocation regression:\n  %s", joinLines(bad))
	}
	return nil
}

func joinLines(lines []string) string {
	out := ""
	for i, l := range lines {
		if i > 0 {
			out += "\n  "
		}
		out += l
	}
	return out
}

// Print renders the probe table.
func (r *AllocBenchResult) Print(w io.Writer) {
	fprintf(w, "== Hot-path allocation benchmark (%d runs/probe, %d warm ticks) ==\n",
		r.Runs, r.WarmTicks)
	fprintf(w, "%-18s %14s %8s  %s\n", "probe", "allocs/op", "budget", "hot root")
	for _, p := range r.Probes {
		status := ""
		if p.AllocsPerOp > p.Budget {
			status = "  REGRESSION"
		}
		fprintf(w, "%-18s %14.1f %8.0f  %s%s\n", p.Name, p.AllocsPerOp, p.Budget, p.HotRoot, status)
	}
}

// WriteJSON writes the result to path.
func (r *AllocBenchResult) WriteJSON(path string) error {
	out, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
