package serve

import (
	"fmt"

	"quasar/internal/chaos"
	"quasar/internal/cluster"
	"quasar/internal/core"
	"quasar/internal/loadgen"
	"quasar/internal/obs"
	"quasar/internal/perfmodel"
	"quasar/internal/slo"
	"quasar/internal/workload"
)

// universeFamilies is the genome-family pool size per workload archetype —
// fixed so submit validation can bound the family index statelessly.
const universeFamilies = 3

// Config is the deterministic identity of a serve world. It is written into
// the journal header, so a journal file alone reconstructs the run: same
// Config + same entries ⇒ byte-identical trace.
type Config struct {
	// Servers sizes a uniform spread of the local platforms; 0 uses the
	// paper's 40-server local testbed (4 of each platform A-J).
	Servers int `json:"servers"`
	// Seed is the deterministic seed for the whole world.
	Seed int64 `json:"seed"`
	// TickSecs / SampleSecs are the runtime cadences (defaults 5 / 60).
	TickSecs   float64 `json:"tick_secs"`
	SampleSecs float64 `json:"sample_secs"`
	// EpochSecs is the admission epoch: journal entries apply at multiples
	// of this boundary (default 1). Must be exactly representable in binary
	// floating point (integers, halves, quarters...) so accumulated
	// boundaries match between live run and replay.
	EpochSecs float64 `json:"epoch_secs"`
	// MaxNodes bounds per-job scale-out (default 4).
	MaxNodes int `json:"max_nodes"`
	// SeedLib is the offline-profiled library size per workload type
	// (default 1; the library is generated at startup and consumes the
	// first 7×SeedLib workload ordinals).
	SeedLib int `json:"seed_lib"`
	// SLO attaches the SLO monitoring engine; /healthz reads its cluster
	// health sweep.
	SLO bool `json:"slo"`
	// Detector arms the failure detector (always armed when Faults is set).
	Detector bool `json:"detector"`
	// FlightRecorder is the RingSink capacity backing /debug/flightrecorder
	// (default 4096 events).
	FlightRecorder int `json:"flight_recorder"`
	// Faults optionally injects a chaos plan, armed before any admission.
	Faults *chaos.Plan `json:"faults,omitempty"`
}

// withDefaults fills unset fields; the result is what the journal header
// records, so defaults changing in a future version cannot reinterpret an
// existing journal.
func (c Config) withDefaults() Config {
	if c.TickSecs <= 0 {
		c.TickSecs = 5
	}
	if c.SampleSecs <= 0 {
		c.SampleSecs = 60
	}
	if c.EpochSecs <= 0 {
		c.EpochSecs = 1
	}
	if c.MaxNodes <= 0 {
		c.MaxNodes = 4
	}
	if c.SeedLib <= 0 {
		c.SeedLib = 1
	}
	if c.FlightRecorder <= 0 {
		c.FlightRecorder = 4096
	}
	return c
}

// world is a fully assembled simulation: cluster, runtime, universe, Quasar
// manager, tracer (ring flight recorder + optional extra sinks), optional
// SLO engine and fault injector. Both the live server and Replay build
// worlds through the same function, which is what makes them byte-identical.
type world struct {
	cfg    Config
	rt     *core.Runtime
	u      *workload.Universe
	q      *core.Quasar
	slo    *slo.Engine
	tracer *obs.Tracer
	ring   *obs.RingSink
	inj    *chaos.Injector
	// onApplied, when set, observes every applied entry's outcome. The live
	// server uses it to close wall-clock request spans; Replay leaves it nil,
	// and it feeds nothing back into the deterministic stream.
	onApplied func(e *Entry, applyErr string)
}

// quasarOptions is the manager configuration shared by world construction
// and failover restore — a restored standby must configure its fresh manager
// identically to the primary's.
func quasarOptions(cfg Config) core.QuasarOptions {
	opts := core.DefaultQuasarOptions()
	opts.MaxNodesPerJob = cfg.MaxNodes
	opts.Classify.MaxNodes = max(32, cfg.MaxNodes)
	opts.Classify.Entries = 3
	return opts
}

// buildWorld assembles the world for cfg. Extra sinks (a trace StreamSink)
// are appended after the always-on flight-recorder ring. Everything that
// derives RNG streams happens here, in a fixed order, before any admission —
// the deterministic prologue every replay repeats exactly.
func buildWorld(cfg Config, extra ...obs.Sink) (*world, error) {
	cfg = cfg.withDefaults()
	var cl *cluster.Cluster
	var err error
	if cfg.Servers > 0 {
		cl, err = cluster.NewUniform(cluster.LocalPlatforms(), cfg.Servers)
	} else {
		cl, err = cluster.New(cluster.LocalPlatforms(), []int{4, 4, 4, 4, 4, 4, 4, 4, 4, 4})
	}
	if err != nil {
		return nil, err
	}
	rt := core.NewRuntime(cl, core.Options{TickSecs: cfg.TickSecs, SampleSecs: cfg.SampleSecs, Seed: cfg.Seed})
	u := workload.NewUniverse(cl.Platforms, cfg.Seed+1000, universeFamilies)

	w := &world{cfg: cfg, rt: rt, u: u}
	w.ring = obs.NewRingSink(cfg.FlightRecorder)
	sinks := append([]obs.Sink{w.ring}, extra...)
	w.tracer = obs.NewWithSinks(rt.Eng.Now, sinks...)

	var lib []*workload.Instance
	for _, tp := range []workload.Type{workload.Hadoop, workload.Spark, workload.Storm,
		workload.Memcached, workload.Cassandra, workload.Webserver, workload.SingleNode} {
		for i := 0; i < cfg.SeedLib; i++ {
			lib = append(lib, u.New(workload.Spec{Type: tp, Family: -1, MaxNodes: 4}))
		}
	}
	q := core.NewQuasar(rt, quasarOptions(cfg))
	q.SetTracer(w.tracer)
	q.SeedLibrary(lib)
	w.q = q
	rt.SetManager(q)
	if cfg.SLO {
		w.slo = slo.Attach(rt, w.tracer, slo.DefaultOptions())
	}
	if cfg.Detector || cfg.Faults != nil {
		rt.EnableFailureDetector(core.DefaultDetectorOptions())
	}
	if cfg.Faults != nil {
		inj, err := chaos.NewInjector(rt.Eng, rt, cfg.Faults, rt.RNG.Stream("chaos"))
		if err != nil {
			return nil, err
		}
		inj.Start()
		w.inj = inj
	}
	return w, nil
}

// apply executes one journal entry at the current simulation time (an epoch
// boundary — the pacer and Replay both schedule entries there). Entries that
// fail against current state — evicting a primary workload, retargeting an
// unknown one — are deterministic no-ops recorded as apply-error instants:
// the failure depends only on sim state, so live run and replay agree on it.
// (Evicting a workload that holds no placement is not a failure; it succeeds
// and changes nothing.)
// A submit whose constructed ID diverges from the journaled promise is a
// determinism violation and a fatal error.
func (w *world) apply(e *Entry) error {
	switch e.Kind {
	case KindSubmit:
		spec := workload.Spec{
			Type:           typeByName[e.Submit.Type],
			Family:         e.Submit.Family,
			BestEffort:     e.Submit.BestEffort,
			TargetSlack:    e.Submit.TargetSlack,
			QPS:            e.Submit.QPS,
			LatencyUS:      e.Submit.LatencyUS,
			MaxNodes:       e.Submit.MaxNodes,
			MaxCostPerHour: e.Submit.MaxCostPerHour,
		}
		if e.Submit.Dataset != nil {
			spec.Dataset = *e.Submit.Dataset
		}
		inst := w.u.New(spec)
		if inst.ID != e.Workload {
			return fmt.Errorf("serve: journal seq %d promised workload %s but universe minted %s (journal and world out of sync)",
				e.Seq, e.Workload, inst.ID)
		}
		var load loadgen.Pattern
		if e.Submit.Load != nil {
			var err error
			load, err = e.Submit.Load.Build()
			if err != nil {
				// Validated at admission; failing here means the journal
				// was edited or the format drifted.
				return fmt.Errorf("serve: journal seq %d: %w", e.Seq, err)
			}
		} else if inst.Type.Class() == perfmodel.LatencyCritical && !inst.BestEffort {
			load = loadgen.Fluctuating{Min: 0.4 * inst.Target.QPS, Max: 0.9 * inst.Target.QPS, Period: 6000}
		}
		w.rt.Submit(inst, w.rt.Eng.Now(), load)
		w.applied(e, "")
	case KindTarget:
		t := w.rt.Task(e.Workload)
		if t == nil {
			w.applied(e, "unknown workload")
			return nil
		}
		target := t.W.Target
		if e.Target.CompletionSecs > 0 {
			target.CompletionSecs = e.Target.CompletionSecs
		}
		if e.Target.QPS > 0 {
			target.QPS = e.Target.QPS
		}
		if e.Target.LatencyUS > 0 {
			target.LatencyUS = e.Target.LatencyUS
		}
		if e.Target.IPS > 0 {
			target.IPS = e.Target.IPS
		}
		if err := w.q.UpdateTarget(e.Workload, target); err != nil {
			w.applied(e, err.Error())
			return nil
		}
		w.applied(e, "")
	case KindEvict:
		if err := w.rt.Evict(e.Workload); err != nil {
			w.applied(e, err.Error())
			return nil
		}
		w.applied(e, "")
	case KindEnd:
		// The end marker is consumed by the replay loop, never applied.
	default:
		return fmt.Errorf("serve: journal seq %d has unknown kind %q", e.Seq, e.Kind)
	}
	return nil
}

// applied emits the per-entry trace instant — part of the deterministic
// stream, so a replayed trace proves every journal entry was applied at the
// same boundary with the same outcome. The req arg comes from the journal
// entry, so live run and replay emit the identical value (and pre-Req
// journals, which carry no request IDs, replay byte-identically to their
// original traces).
func (w *world) applied(e *Entry, applyErr string) {
	if w.onApplied != nil {
		w.onApplied(e, applyErr)
	}
	if !w.tracer.Enabled() {
		return
	}
	args := []obs.Arg{
		{Key: "seq", Val: e.Seq},
		{Key: "kind", Val: e.Kind},
		{Key: "workload", Val: e.Workload},
	}
	if e.Req != "" {
		args = append(args, obs.Arg{Key: "req", Val: e.Req})
	}
	name := "serve.apply"
	if applyErr != "" {
		name = "serve.apply-error"
		args = append(args, obs.Arg{Key: "error", Val: applyErr})
	}
	w.tracer.Instant("serve", "serve", name, args...)
}
