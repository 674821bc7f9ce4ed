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

// EventID identifies a scheduled event so it can be cancelled.
type EventID uint64

type event struct {
	at    float64
	seq   uint64
	id    EventID
	fn    func()
	index int // heap position, -1 when popped or cancelled
}

// Engine is a discrete-event simulator. The zero value is not usable; use
// NewEngine.
type Engine struct {
	now     float64
	q       eventHeap
	nextSeq uint64
	nextID  EventID
	live    map[EventID]*event
	fired   uint64
	// free recycles fired and cancelled event records so steady-state
	// operation allocates nothing per event: a long simulation's event
	// count is bounded only by virtual time, and one heap object per event
	// was the engine's dominant allocation.
	free []*event
	// Prof, when non-nil, attributes the queue machinery's wall time (pop,
	// clock advance, recycling — not the callbacks) to prof.SubSimStep. It
	// lives outside the determinism boundary: nothing it measures feeds back
	// into scheduling.
	Prof *prof.Profiler
}

// NewEngine returns an engine with the clock at zero and no pending events.
func NewEngine() *Engine {
	return &Engine{live: make(map[EventID]*event)}
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
	e.nextID++
	e.nextSeq++
	var ev *event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		ev.at, ev.seq, ev.id, ev.fn = at, e.nextSeq, e.nextID, fn
	} else {
		ev = &event{at: at, seq: e.nextSeq, id: e.nextID, fn: fn} //lint:allow(hotalloc) freelist refill: amortized away once the event population peaks
	}
	e.q.push(ev)
	e.live[ev.id] = ev
	return ev.id
}

// recycle returns a popped or cancelled event record to the freelist. The
// fn reference is dropped so recycling never pins a closure's captures, and
// the id is cleared so a stale handle can never match a reused record.
func (e *Engine) recycle(ev *event) {
	ev.fn = nil
	ev.id = 0
	e.free = append(e.free, ev)
}

// After runs fn after delay seconds of virtual time.
func (e *Engine) After(delay float64, fn func()) EventID {
	return e.Schedule(e.now+delay, fn)
}

// Cancel removes a pending event. Cancelling an already-fired, already-
// cancelled, or unknown event is a safe no-op and returns false — a stale
// EventID must never touch a recycled record that now backs a newer event.
func (e *Engine) Cancel(id EventID) bool {
	if id == 0 {
		return false
	}
	ev, ok := e.live[id]
	if !ok || ev.id != id {
		// Not pending: fired, cancelled, or the id predates a restart. The
		// ev.id check is defense in depth — a live entry pointing at a
		// record the freelist already reissued would otherwise let this
		// cancel destroy an unrelated newer event.
		return false
	}
	delete(e.live, id)
	if !e.q.remove(ev) {
		// The queue disagrees with the live map; recycling here could hand
		// the same record to two future events, which is the corruption
		// this guard exists to make impossible.
		return false
	}
	e.recycle(ev)
	return true
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
	ev := e.q.pop()
	if ev == nil {
		e.Prof.End(prof.SubSimStep, t0)
		return false
	}
	delete(e.live, ev.id)
	e.now = ev.at
	e.fired++
	fn := ev.fn
	e.recycle(ev)
	// Close the sim-step section before dispatch: the callback's time belongs
	// to whichever subsystem it enters (runtime tick, scheduler, ...), not to
	// the queue core.
	e.Prof.End(prof.SubSimStep, t0)
	fn()
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
