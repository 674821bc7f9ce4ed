// Package chaos is a deterministic fault-injection engine. It turns a
// declarative Plan into server crashes, restarts, transient slowdowns
// (degraded IPC, modeled as an extra interference source), and
// lost-heartbeat network partitions, all driven by the simulation clock.
//
// Determinism contract: every random choice (fault target, rate-based
// arrival time) is drawn from a per-fault sim.RNG substream derived
// sequentially in plan order, and every injection fires on the single
// simulation goroutine. A plan therefore produces a byte-identical fault
// schedule on every run.
//
// The package depends only on internal/sim; the cluster side is reached
// through the World interface, which internal/core's Runtime implements.
package chaos

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Fault kinds understood by the injector.
const (
	// KindCrash takes a server down, killing resident work. DurationSecs 0
	// means the server never restarts; otherwise it restarts (empty) after
	// that long.
	KindCrash = "crash"
	// KindSlowdown degrades a server's effective IPC for DurationSecs by
	// injecting extra interference pressure scaled by Severity.
	KindSlowdown = "slowdown"
	// KindPartition cuts heartbeats between a server and the manager for
	// DurationSecs. Resident work keeps running unless the detector declares
	// the server dead and fences it first.
	KindPartition = "partition"
)

// AnyServer as a FaultSpec.Server means "pick a target at random from the
// fault's own RNG substream" (a fresh draw per injection for repeating
// faults).
const AnyServer = -1

// FaultSpec is one fault source in a plan. Exactly one arrival mode applies:
//
//   - one-shot: fires once at At (the default when neither Every nor
//     RatePerHour is set),
//   - periodic: fires at At, At+Every, At+2*Every, ...,
//   - rate-based: a Poisson process with RatePerHour arrivals per hour,
//     starting at At.
//
// Repeating faults stop after Count injections (0 = unlimited) and never
// fire at or after Until (0 = no horizon).
type FaultSpec struct {
	// Kind is one of crash, slowdown, partition.
	Kind string `json:"kind"`
	// Server is the target server ID, or AnyServer (-1, the default when
	// omitted) for a random target per injection.
	Server int `json:"server"`
	// At is the (first) injection time in seconds of sim time.
	At float64 `json:"at"`
	// Every makes the fault periodic with this period in seconds.
	Every float64 `json:"every,omitempty"`
	// RatePerHour makes the fault a Poisson arrival process.
	RatePerHour float64 `json:"rate_per_hour,omitempty"`
	// Count caps the number of injections for periodic/rate faults.
	Count int `json:"count,omitempty"`
	// Until stops periodic/rate faults at this sim time.
	Until float64 `json:"until,omitempty"`
	// DurationSecs is how long the fault lasts: restart delay for crashes
	// (0 = permanent), slowdown length, partition length.
	DurationSecs float64 `json:"duration_secs,omitempty"`
	// Severity in (0,1] scales the interference pressure of a slowdown.
	Severity float64 `json:"severity,omitempty"`
}

// UnmarshalJSON decodes a spec with Server defaulting to AnyServer, so plans
// only name a server when they mean one. Unknown fields are rejected here
// because the outer decoder's DisallowUnknownFields does not reach into a
// custom unmarshaler.
func (f *FaultSpec) UnmarshalJSON(b []byte) error {
	type alias FaultSpec
	a := alias{Server: AnyServer}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&a); err != nil {
		return err
	}
	*f = FaultSpec(a)
	return nil
}

// repeating reports whether the spec fires more than once.
func (f *FaultSpec) repeating() bool { return f.Every > 0 || f.RatePerHour > 0 }

// Validate checks a single spec.
func (f *FaultSpec) Validate() error {
	switch f.Kind {
	case KindCrash:
		if f.Severity != 0 { //lint:allow(floatcmp) zero means "field not set"
			return fmt.Errorf("chaos: crash fault does not take a severity")
		}
	case KindSlowdown:
		if f.Severity <= 0 || f.Severity > 1 {
			return fmt.Errorf("chaos: slowdown severity must be in (0,1], got %g", f.Severity)
		}
		if f.DurationSecs <= 0 {
			return fmt.Errorf("chaos: slowdown needs duration_secs > 0")
		}
	case KindPartition:
		if f.DurationSecs <= 0 {
			return fmt.Errorf("chaos: partition needs duration_secs > 0")
		}
		if f.Severity != 0 { //lint:allow(floatcmp) zero means "field not set"
			return fmt.Errorf("chaos: partition fault does not take a severity")
		}
	default:
		return fmt.Errorf("chaos: unknown fault kind %q", f.Kind)
	}
	if f.Server < AnyServer {
		return fmt.Errorf("chaos: invalid server %d", f.Server)
	}
	if f.At < 0 {
		return fmt.Errorf("chaos: at must be >= 0, got %g", f.At)
	}
	if f.Every > 0 && f.RatePerHour > 0 {
		return fmt.Errorf("chaos: choose one of every / rate_per_hour, not both")
	}
	if f.Every < 0 || f.RatePerHour < 0 || f.DurationSecs < 0 {
		return fmt.Errorf("chaos: negative timing field in %+v", *f)
	}
	if f.Count < 0 {
		return fmt.Errorf("chaos: count must be >= 0, got %d", f.Count)
	}
	if (f.Count > 0 || f.Until > 0) && !f.repeating() {
		return fmt.Errorf("chaos: count/until only apply to periodic or rate faults")
	}
	if f.Until > 0 && f.Until <= f.At {
		return fmt.Errorf("chaos: until (%g) must be after at (%g)", f.Until, f.At)
	}
	return nil
}

// Plan is a declarative fault schedule: a named list of fault sources.
// Fault order matters — RNG substreams derive in list order.
type Plan struct {
	Name   string      `json:"name"`
	Faults []FaultSpec `json:"faults"`
}

// Validate checks every spec in the plan.
func (p *Plan) Validate() error {
	if len(p.Faults) == 0 {
		return fmt.Errorf("chaos: plan %q has no faults", p.Name)
	}
	for i := range p.Faults {
		if err := p.Faults[i].Validate(); err != nil {
			return fmt.Errorf("chaos: fault %d: %w", i, err)
		}
	}
	return nil
}

// Parse decodes and validates a plan from JSON.
func Parse(r io.Reader) (*Plan, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var p Plan
	if err := dec.Decode(&p); err != nil {
		return nil, fmt.Errorf("chaos: parsing plan: %w", err)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &p, nil
}

// Load reads a plan from a JSON file.
func Load(path string) (*Plan, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("chaos: %w", err)
	}
	defer func() { _ = f.Close() }()
	return Parse(f)
}
