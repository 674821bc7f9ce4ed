package experiments_test

import (
	"io"
	"testing"

	"quasar/internal/classify"
	"quasar/internal/cluster"
	"quasar/internal/experiments"
	"quasar/internal/loadgen"
	"quasar/internal/obs"
	"quasar/internal/sched"
	"quasar/internal/serve"
	"quasar/internal/sim"
	"quasar/internal/workload"
)

// The allocation probes are the repository's allocation gate. Each measures
// what one hot function allocates per operation at steady state, with
// testing.AllocsPerRun, against the budget in its row below. A probe over its
// budget is an allocation regression: some change re-introduced per-operation
// garbage on a path the engine runs per event, tick, decision or admission.
// The performance ledger (bench/) gates the end-to-end cost in
// alloc_kb_per_op; these rows say which function moved.
//
// Budgets are ceilings with headroom, not exact counts — the retained-by-design
// allocations (trace events, heatmap history, returned assignments) legitimately
// vary with scenario phase. A row whose count cannot vary has its measured
// count as budget, so the first new allocation fails it. Exceeding one means a
// structural regression (a new per-op allocation), not noise.
const (
	// allocRuns is the sample count handed to testing.AllocsPerRun per probe.
	allocRuns = 50
	// allocWarmTicks is how many runtime ticks a scenario probe executes
	// before measuring, so scratch buffers reach steady-state capacity.
	allocWarmTicks = 400
	allocSeed      = 11
)

// allocProbes is the gate's table: one row per hot function, keyed by a
// stable probe name.
var allocProbes = []struct {
	name     string
	measures string // the function the probe measures
	budget   float64
	probe    func(t *testing.T) float64
}{
	// One event pop + self-reschedule into the engine's value heap: zero
	// steady-state allocations (measured 0.0).
	{"sim_step", "quasar/internal/sim.(*Engine).Step", 0, simStepProbe},
	// One scheduling decision: the returned Assignment, its node list, and
	// the tuned framework config are the decision itself;
	// candidate ranking and sizing reuse scheduler-owned scratch
	// (measured 5.0).
	{"sched_schedule", "quasar/internal/sched.(*Scheduler).Schedule", 10, schedScheduleProbe},
	// One runtime tick over nine steady services: progress accounting and
	// load lookups are allocation-free, and ground truth is rebuilt (one
	// nodesOf slice) only for a service whose servers changed; the residue
	// is the QoS history (retained by design) and the manager's occasional
	// adjustments and reclassifications (measured 2.0).
	{"runtime_tick", "quasar/internal/core.(*Runtime).tick", 4,
		func(t *testing.T) float64 { return tickProbe(t, false) }},
	// One runtime tick with the SLO engine attached, sequential fan-out:
	// adds window pushes and health scoring on reused scratch, with
	// per-workload state found by position (measured 2.0).
	{"slo_tick", "quasar/internal/slo.(*Engine).onTick", 4,
		func(t *testing.T) float64 { return tickProbe(t, true) }},
	// One event through the full trace pipeline — sequencing and fan-out to
	// a streaming JSONL sink plus a ring flight recorder. The caller's
	// variadic args slice (the ring retains it) and its boxed values are all
	// of it: the streaming sink appends the line into a buffer it reuses,
	// with no reflection and no per-arg scratch (measured 2.0; the sink
	// itself encodes even a full 184-candidate decision with 0, pinned by
	// obs.TestStreamSinkEmitDecisionZeroAlloc).
	{"tracer_emit", "quasar/internal/obs.(*Tracer).emit", 5, tracerEmitProbe},
	// One journaled admission against a discarding writer: the predicted
	// workload ID, the request ID and the pending-batch entry are the
	// admission itself; the JSON encoding reuses the encoder's buffer
	// (measured 3.0).
	{"serve_admit", "quasar/internal/serve.(*Journal).Admit", 6, serveAdmitProbe},
	// One admission-queue drain on a saturated cluster with over a thousand
	// best-effort tasks waiting and nothing that fits: one placement scan,
	// then every entry is kept through the no-fit memo into the reused
	// survivor buffer (measured 0.0).
	{"queue_drain", "quasar/internal/core.(*WaitQueue).Drain", 0, queueDrainProbe},
	// One estimate evaluation (the monitor's per-node, the scheduler's
	// per-candidate step): two table lookups and three exponentials on the
	// stack (measured 0.0).
	{"estimates_nodeperf", "quasar/internal/classify.(*Estimates).NodePerf", 0, nodePerfProbe},
	// The monitor's per-task feedback step at steady state: an in-band
	// measurement on an unchanged placement reads the memoized estimate,
	// whose key buffer the estimates already own (measured 0.0).
	{"estimates_correctwith", "quasar/internal/classify.(*Estimates).CorrectWith", 0, correctWithProbe},
	// One oracle target sweep for a configured Hadoop job, paid by every
	// targeted batch arrival in Universe.New: one node rate per platform and
	// configuration, the candidates in a fixed array on the stack (measured
	// 0.0).
	{"oracle_sweep", "quasar/internal/workload.OracleBestCompletion", 0, oracleSweepProbe},
	// One best-effort single-node arrival's instance, the bulk of
	// sim_scale_churn's submissions: its ID, random streams, synthetic
	// dataset, genome with its dense affinity slice, and the instance. No
	// target is derived (measured 12.0).
	{"universe_new_be", "quasar/internal/workload.(*Universe).New", 12, universeNewProbe},
	// One scale-out probe of a configured Hadoop job, paid per node count
	// for every distributed workload the library seeds: one node rate for
	// both counts, the tuned configuration in the prober (measured 0.0).
	{"prober_scaleout", "quasar/internal/classify.(*GroundTruthProber).ScaleOut", 0, proberScaleOutProbe},
}

// TestAllocBudgets is the allocation gate: every probe must stay within its
// budget. A failure here means a change added per-operation heap allocations
// to the function the row names.
func TestAllocBudgets(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation probes need steady-state warmup")
	}
	for _, p := range allocProbes {
		t.Run(p.name, func(t *testing.T) {
			allocs := p.probe(t)
			t.Logf("%8.1f allocs/op (budget %.0f) on %s", allocs, p.budget, p.measures)
			if allocs > p.budget {
				t.Errorf("%.1f allocs/op exceeds budget %.0f", allocs, p.budget)
			}
		})
	}
}

// simStepProbe builds a self-rescheduling event loop and measures one Step.
func simStepProbe(*testing.T) float64 {
	eng := sim.NewEngine()
	var tick func()
	tick = func() { eng.After(1, tick) }
	eng.After(1, tick)
	for i := 0; i < 64; i++ { // grow the heap to its steady capacity
		eng.Step()
	}
	return testing.AllocsPerRun(allocRuns, func() { eng.Step() })
}

// schedScheduleProbe measures one right-sizing decision against a populated
// cluster. Schedule does not mutate the cluster, so repeated calls see
// identical state.
func schedScheduleProbe(t *testing.T) float64 {
	const seed = allocSeed
	platforms := cluster.LocalPlatforms()
	cl, err := cluster.New(platforms, []int{4, 4, 4, 4, 4, 4, 4, 4, 4, 4})
	if err != nil {
		t.Fatal(err)
	}
	u := workload.NewUniverse(platforms, seed, 3)
	copts := classify.DefaultOptions()
	copts.MaxNodes = 32
	ceng := classify.NewEngine(platforms, copts, sim.NewRNG(seed+1))
	var lib []*workload.Instance
	var probers []*classify.GroundTruthProber
	for _, tp := range []workload.Type{workload.Hadoop, workload.Memcached, workload.SingleNode} {
		for i := 0; i < 3; i++ {
			w := u.New(workload.Spec{Type: tp, Family: -1, MaxNodes: 4})
			lib = append(lib, w)
			probers = append(probers, classify.NewGroundTruthProber(w, platforms, sim.NewRNG(seed+int64(i))))
		}
	}
	ceng.SeedOfflineMany(lib, probers)
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
			t.Fatal(err)
		}
		for _, n := range asn.Nodes {
			caused := w.CausedPressure(n.Server.Platform, n.Alloc)
			if _, err := n.Server.Place(w.ID, n.Alloc, caused, w.Tier()); err != nil {
				t.Fatal(err)
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
		t.Fatal(err)
	}
	return testing.AllocsPerRun(allocRuns, func() {
		_, _ = s.Schedule(req)
	})
}

// tracerEmitProbe measures one event through the whole trace pipeline at
// steady state: sequence assignment and fan-out to a streaming JSONL sink
// (real encoding, discarded bytes) plus a ring flight recorder. The warm
// loop fills the ring and grows the sink's line buffer first.
func tracerEmitProbe(*testing.T) float64 {
	now := 0.0
	tr := obs.NewWithSinks(func() float64 { return now },
		obs.NewStreamSinkWriter(io.Discard), obs.NewRingSink(256))
	emit := func(i int) {
		now += 0.001
		tr.Instant("server/7", "runtime", "alloc.probe",
			obs.Arg{Key: "tick", Val: i}, obs.Arg{Key: "load", Val: now})
	}
	for i := 0; i < 512; i++ {
		emit(i)
	}
	i := 0
	return testing.AllocsPerRun(allocRuns, func() {
		i++
		emit(i)
	})
}

// tickProbe advances a warmed scenario one runtime tick per operation. The
// scenario's workloads never complete (latency-critical services under
// fluctuating load), so per-tick allocation behavior is stationary for the
// probe's duration.
func tickProbe(t *testing.T, withSLO bool) float64 {
	s, err := experiments.NewScenario(experiments.ScenarioConfig{
		Cluster: experiments.Local40, Manager: experiments.KindQuasar, Seed: allocSeed,
		MaxNodes: 4, SeedLib: 3, SLO: withSLO,
	})
	if err != nil {
		t.Fatal(err)
	}
	svcTypes := []workload.Type{workload.Webserver, workload.Memcached, workload.Cassandra}
	at := 0.0
	for i := 0; i < 9; i++ {
		w := s.U.New(workload.Spec{Type: svcTypes[i%3], Family: -1, MaxNodes: 3})
		load := loadgen.Fluctuating{Min: 0.4 * w.Target.QPS, Max: 0.8 * w.Target.QPS, Period: 6000}
		s.RT.Submit(w, at, load)
		at += 5
	}
	tick := 5.0
	s.RT.Run(float64(allocWarmTicks) * tick)
	eng := s.RT.Eng
	return testing.AllocsPerRun(allocRuns, func() {
		eng.Run(eng.Now() + tick)
	})
}

// serveAdmitProbe measures one journaled admission — stamp, encode, append —
// against a discarding writer, the synchronous work every live HTTP submit
// pays under the journal lock.
func serveAdmitProbe(t *testing.T) float64 {
	j := serve.NewJournalWriter(io.Discard, serve.Config{}, 1)
	e := serve.Entry{Kind: serve.KindSubmit, Submit: &serve.SubmitRequest{
		Type: "single-node", Family: -1, BestEffort: true,
	}}
	for i := 0; i < 64; i++ { // warm the encoder and pending-batch storage
		if _, err := j.Admit(e); err != nil {
			t.Fatal(err)
		}
	}
	return testing.AllocsPerRun(allocRuns, func() { _, _ = j.Admit(e) })
}

// queueDrainProbe measures one drain of Quasar's admission queue at the
// state the drain is hot in: every server full of long-running best-effort
// fillers and more than a thousand further fillers waiting. Nothing fits, so
// repeated drains see identical state. OnServerRestored is the manager's
// bare drain.
func queueDrainProbe(t *testing.T) float64 {
	s, err := experiments.NewScenario(experiments.ScenarioConfig{
		Cluster: experiments.Local40, Manager: experiments.KindQuasar, Seed: allocSeed, MaxNodes: 4, SeedLib: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1500; i++ {
		w := s.U.New(workload.Spec{Type: workload.SingleNode, Family: -1, BestEffort: true})
		w.Genome.Work = 1e15
		s.RT.Submit(w, float64(i)*0.01, nil)
	}
	s.RT.Run(30) // all arrived; a few ticks size the drain's two buffers
	if n := s.Q.QueueLen(); n < 1000 {
		t.Fatalf("%d tasks queued, want >= 1000", n)
	}
	return testing.AllocsPerRun(allocRuns, func() { s.Q.OnServerRestored(nil) })
}

// oracleSweepProbe measures one OracleBestCompletion over the local
// platforms for a configured Hadoop job allowed eight nodes, the sweep
// deriveTarget runs for it.
func oracleSweepProbe(*testing.T) float64 {
	platforms := cluster.LocalPlatforms()
	u := workload.NewUniverse(platforms, allocSeed, 3)
	w := u.New(workload.Spec{Type: workload.Hadoop, Family: -1, MaxNodes: 8})
	return testing.AllocsPerRun(allocRuns, func() {
		_, _ = workload.OracleBestCompletion(w, platforms, 8)
	})
}

// universeNewProbe measures one Universe.New of a best-effort single-node
// job on the local platforms, sim_scale_churn's.
func universeNewProbe(*testing.T) float64 {
	u := workload.NewUniverse(cluster.LocalPlatforms(), allocSeed, 3)
	spec := workload.Spec{Type: workload.SingleNode, Family: -1, BestEffort: true}
	return testing.AllocsPerRun(allocRuns, func() { u.New(spec) })
}

// proberScaleOutProbe measures one noisy ScaleOut at 32 nodes of half the
// profiling platform, the largest count seeding probes at the ledger's
// MaxNodes.
func proberScaleOutProbe(*testing.T) float64 {
	platforms := cluster.LocalPlatforms()
	u := workload.NewUniverse(platforms, allocSeed, 3)
	w := u.New(workload.Spec{Type: workload.Hadoop, Family: -1, MaxNodes: 8})
	p := classify.NewGroundTruthProber(w, platforms, sim.NewRNG(allocSeed))
	plat := &platforms[p.ProfilingPlatform]
	alloc := cluster.Alloc{Cores: max(1, plat.Cores/2), MemoryGB: plat.MemoryGB / 2}
	sum := 0.0
	for i := 0; i < 300; i++ { // build the noise stream's register
		sum += p.ScaleOut(32, alloc)
	}
	return testing.AllocsPerRun(allocRuns, func() {
		sum += p.ScaleOut(32, alloc)
	})
}

// classifiedHadoop classifies one Hadoop job against a three-row library
// on the local platforms.
func classifiedHadoop() (*classify.Estimates, []cluster.Platform) {
	const seed = allocSeed
	platforms := cluster.LocalPlatforms()
	u := workload.NewUniverse(platforms, seed, 3)
	ceng := classify.NewEngine(platforms, classify.DefaultOptions(), sim.NewRNG(seed+1))
	lib := make([]*workload.Instance, 3)
	probers := make([]*classify.GroundTruthProber, len(lib))
	for i := range lib {
		lib[i] = u.New(workload.Spec{Type: workload.Hadoop, Family: -1, MaxNodes: 4})
		probers[i] = classify.NewGroundTruthProber(lib[i], platforms, sim.NewRNG(seed+int64(i)))
	}
	ceng.SeedOfflineMany(lib, probers)
	w := u.New(workload.Spec{Type: workload.Hadoop, Family: -1, MaxNodes: 4})
	return ceng.Classify(w, classify.NewGroundTruthProber(w, platforms, sim.NewRNG(seed+7))), platforms
}

// nodePerfProbe measures one Estimates.NodePerf on a classified workload,
// cycling platforms and allocations on and off the scale-up grid.
func nodePerfProbe(*testing.T) float64 {
	es, platforms := classifiedHadoop()
	pressure := cluster.ResVec{0.2, 0.1, 0.3}
	i, sum := 0, 0.0
	return testing.AllocsPerRun(allocRuns, func() {
		i++
		p := &platforms[i%len(platforms)]
		sum += es.NodePerf(i%len(platforms), cluster.Alloc{Cores: 1 + i%p.Cores, MemoryGB: p.MemoryGB / float64(1+i%3)}, pressure)
	})
}

// correctWithProbe measures one Estimates.CorrectWith as the monitor makes it
// on a task whose placement did not change since the last tick: the same
// two-node assignment, measured inside the noise band.
func correctWithProbe(t *testing.T) float64 {
	es, _ := classifiedHadoop()
	nodes := []classify.NodeChoice{
		{PlatformIdx: 7, Alloc: cluster.Alloc{Cores: 12, MemoryGB: 24}, Pressure: cluster.ResVec{0.2, 0.1, 0.3}},
		{PlatformIdx: 9, Alloc: cluster.Alloc{Cores: 8, MemoryGB: 16}, Pressure: cluster.ResVec{0.1, 0.4}},
	}
	measured := 1.02 * es.JobPerf(nodes)
	if c := es.CorrectWith(measured, nodes); c != 1 {
		t.Fatalf("in-band measurement applied a correction of %v", c)
	}
	return testing.AllocsPerRun(allocRuns, func() { es.CorrectWith(measured, nodes) })
}
