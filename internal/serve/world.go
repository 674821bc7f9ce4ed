package serve

import (
	"fmt"
	"math"

	"quasar/internal/chaos"
	"quasar/internal/cluster"
	"quasar/internal/core"
	"quasar/internal/experiments"
	"quasar/internal/loadgen"
	"quasar/internal/obs"
	"quasar/internal/workload"
)

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
	// of this boundary (default 1). It must be a positive multiple of 2⁻¹⁰
	// (integers, halves, quarters...) so accumulated boundaries match
	// between live run and replay; validate rejects any other value.
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
	return c
}

// validate rejects a configuration whose world or epoch grid is undefined.
// Epoch boundaries are summed one EpochSecs at a time by the pacer and by
// Replay, but BuildJournal computes them as Ceil(at/E)·E; the two agree bit
// for bit only when every multiple of E is exact, so EpochSecs must be a
// positive multiple of 2⁻¹⁰ (0 selects the default). Zero fields are
// defaults, so validate runs before withDefaults.
func (c Config) validate() error {
	if c.Servers < 0 {
		return fmt.Errorf("serve: servers must be 0 (the 40-server testbed) or positive, got %d", c.Servers)
	}
	if e := c.EpochSecs * 1024; !(e >= 0) || math.IsInf(e, 0) || e != math.Trunc(e) { //lint:allow(floatcmp) exactness is the check
		return fmt.Errorf("serve: epoch_secs must be a positive multiple of 1/1024, got %g", c.EpochSecs)
	}
	return nil
}

// world is a serve run's simulation: the scenario every world is assembled
// as, and the epoch state the live pacer and Replay both advance through
// step.
type world struct {
	*experiments.Scenario
	cfg Config
	// onApplied, when set, observes every applied entry's outcome. The live
	// server uses it to close wall-clock request spans, timed from
	// applyStartNS (the telemetry clock just before the entry's apply ran);
	// Replay leaves it nil, and it feeds nothing back into the
	// deterministic stream.
	onApplied    func(e *Entry, applyErr string)
	applyStartNS int64

	// Epoch state: the last applied journal sequence number and the applied
	// count, the first fatal apply error, and the snapshot cadence (no
	// snapshots when snapPath is empty or snapEvery is not positive).
	appliedSeq, appliedN int
	applyErr             error
	snapPath             string
	snapEvery, snapDue   float64
}

// buildWorld assembles the world for cfg with experiments.NewScenario. The
// world always traces, into sinks (the live daemon's flight-recorder ring and
// trace StreamSink, a replay's trace file); with none, into a DiscardSink,
// which keeps nothing where the scenario's default would buffer the whole
// trace. Everything that derives RNG streams happens here, in a fixed order,
// before any admission — the deterministic prologue every replay repeats
// exactly.
func buildWorld(cfg Config, sinks ...obs.Sink) (*world, error) {
	cfg = cfg.withDefaults()
	if len(sinks) == 0 {
		sinks = []obs.Sink{obs.DiscardSink{}}
	}
	s, err := experiments.NewScenario(experiments.ScenarioConfig{
		Servers: cfg.Servers, Manager: experiments.KindQuasar, Seed: cfg.Seed,
		TickSecs: cfg.TickSecs, Sample: cfg.SampleSecs, SeedLib: cfg.SeedLib, MaxNodes: cfg.MaxNodes,
		Trace: true, TraceSinks: sinks, SLO: cfg.SLO,
	})
	if err != nil {
		return nil, err
	}
	if cfg.Faults != nil {
		if _, err := s.AttachFaults(cfg.Faults, core.DefaultDetectorOptions()); err != nil {
			return nil, err
		}
	} else if cfg.Detector {
		s.RT.EnableFailureDetector(core.DefaultDetectorOptions())
	}
	return &world{Scenario: s, cfg: cfg}, nil
}

// step runs the epoch at boundary b (the simulation is at or before b): the
// batch is scheduled at b in sequence order and the engine runs to b; then,
// unless an apply failed, the applied cursor advances and the snapshot
// cadence is served. It reports whether a snapshot landed. The live pacer
// and Replay both advance the world only through step, which is what makes
// their traces byte-identical.
func (w *world) step(b float64, batch []Entry) (snapped bool, err error) {
	for i := range batch {
		e := batch[i]
		w.RT.Eng.Schedule(b, func() {
			if w.onApplied != nil {
				w.applyStartNS = telNow()
			}
			if err := w.apply(&e); err != nil && w.applyErr == nil {
				w.applyErr = err
			}
		})
	}
	w.RT.Eng.Run(b)
	if w.applyErr != nil {
		return false, w.applyErr
	}
	if n := len(batch); n > 0 {
		w.appliedSeq = batch[n-1].Seq
		w.appliedN += n
	}
	if w.snapPath == "" || w.snapEvery <= 0 || b+1e-9 < w.snapDue {
		return false, nil
	}
	if err := w.writeSnapshot(); err != nil {
		return false, err
	}
	w.snapDue += w.snapEvery
	return true, nil
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
		inst := w.U.New(spec)
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
		} else if inst.Tier() == cluster.Guaranteed {
			load = experiments.ServiceLoad(inst)
		}
		w.RT.Submit(inst, w.RT.Eng.Now(), load)
		w.applied(e, "")
	case KindTarget:
		t := w.RT.Task(e.Workload)
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
		if err := w.Q.UpdateTarget(e.Workload, target); err != nil {
			w.applied(e, err.Error())
			return nil
		}
		w.applied(e, "")
	case KindEvict:
		if err := w.RT.Evict(e.Workload); err != nil {
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
	if !w.Tracer.Enabled() {
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
	w.Tracer.Instant("serve", "serve", name, args...)
}
