// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine maintains a virtual clock in seconds and a pending-event queue.
// Events are closures scheduled at absolute virtual times; ties are broken by
// scheduling order so runs are fully deterministic. Recurring activities
// (progress integration, monitoring) are expressed as periodic ticks. The
// pending events live in a binary heap ordered by (time, scheduling order).
package sim

import (
	"fmt"
	"math"

	"quasar/internal/obs/prof"
)

// EventID identifies a scheduled event so it can be cancelled. It is the
// event's scheduling sequence number, which is never reused.
type EventID uint64

type event struct {
	at  float64
	seq uint64
	fn  func()
}

// Engine is a discrete-event simulator. The zero value is not usable; use
// NewEngine.
type Engine struct {
	now     float64
	q       eventHeap
	nextSeq uint64
	fired   uint64
	// Prof, when non-nil, attributes the queue machinery's wall time (pop
	// and clock advance, not the callbacks) to prof.SubSimStep. It lives
	// outside the determinism boundary: nothing it measures feeds back into
	// scheduling.
	Prof *prof.Profiler
}

// NewEngine returns an engine with the clock at zero and no pending events.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current virtual time in seconds.
func (e *Engine) Now() float64 { return e.now }

// Schedule runs fn at virtual time at. Scheduling in the past (at < Now)
// panics: it indicates a logic error in the caller.
func (e *Engine) Schedule(at float64, fn func()) EventID {
	if at < e.now {
		panic(fmt.Sprintf("sim: schedule at %.6f before now %.6f", at, e.now))
	}
	if math.IsNaN(at) || math.IsInf(at, 0) {
		panic(fmt.Sprintf("sim: schedule at non-finite time %v", at))
	}
	e.nextSeq++
	e.q.push(event{at: at, seq: e.nextSeq, fn: fn})
	return EventID(e.nextSeq)
}

// After runs fn after delay seconds of virtual time.
func (e *Engine) After(delay float64, fn func()) EventID {
	return e.Schedule(e.now+delay, fn)
}

// Cancel removes a pending event and reports whether it was pending. An
// event that has fired or been cancelled, or an id never issued, is not in
// the queue, so cancelling it is a no-op that returns false. Cancel scans
// the queue: its one caller in program code is a ticker's stop, once per
// ticker.
func (e *Engine) Cancel(id EventID) bool {
	for i := range e.q {
		if e.q[i].seq == uint64(id) {
			e.q.remove(i)
			return true
		}
	}
	return false
}

// Pending reports the number of events waiting to fire.
func (e *Engine) Pending() int { return len(e.q) }

// NextAt reports the virtual time of the earliest pending event, and whether
// one exists. It never fires or removes anything — a status probe for live
// front ends (quasar-serve's /statusz).
func (e *Engine) NextAt() (float64, bool) { return e.q.peekAt() }

// Step fires the next event, advancing the clock to its time. It returns
// false when no events remain.
func (e *Engine) Step() bool {
	t0 := e.Prof.Begin()
	if len(e.q) == 0 {
		e.Prof.End(prof.SubSimStep, t0)
		return false
	}
	ev := e.q.pop()
	e.now = ev.at
	e.fired++
	// Close the sim-step section before dispatch: the callback's time belongs
	// to whichever subsystem it enters (runtime tick, scheduler, ...), not to
	// the queue core.
	e.Prof.End(prof.SubSimStep, t0)
	ev.fn()
	return true
}

// Fired reports the number of events fired since construction (an engine
// health metric exported by the observability registry).
func (e *Engine) Fired() uint64 { return e.fired }

// Run fires events until the clock would pass until, or no events remain.
// The clock finishes exactly at until.
func (e *Engine) Run(until float64) {
	for {
		at, ok := e.q.peekAt()
		if !ok || at > until {
			break
		}
		e.Step()
	}
	if e.now < until {
		e.now = until
	}
}

// RunAll fires every pending event, including ones scheduled by fired
// events, until the queue is empty.
func (e *Engine) RunAll() {
	for e.Step() {
	}
}

// Ticker schedules fn every period seconds starting at start, until the
// returned stop function is called. fn receives the tick time.
func (e *Engine) Ticker(start, period float64, fn func(now float64)) (stop func()) {
	if period <= 0 {
		panic("sim: ticker period must be positive")
	}
	stopped := false
	var tick func()
	at := start
	var id EventID
	tick = func() {
		if stopped {
			return
		}
		fn(e.now)
		at += period
		id = e.Schedule(at, tick)
	}
	id = e.Schedule(at, tick)
	return func() {
		stopped = true
		e.Cancel(id)
	}
}
