package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"quasar/internal/cluster"
	"quasar/internal/core"
	"quasar/internal/obs"
)

// A span is one timed interval at a layer boundary, recorded by the bench
// from outside the program: name, start and end on the recorder's clock,
// the span that caused it (-1 for a root) and the op it belongs to.
type span struct {
	name     string
	start    int64
	end      int64
	parent   int32
	op       int32
	children int64 // nanoseconds covered by direct child spans
}

// recorder keeps spans in memory until the run ends. Spans nest on one
// goroutine (the simulation goroutine, or the load generator); begin/end
// pairs must be balanced.
type recorder struct {
	base  time.Time
	spans []span
	stack []int32
	op    int32
}

func newRecorder() *recorder {
	return &recorder{base: time.Now(), spans: make([]span, 0, 1<<16)}
}

func (r *recorder) now() int64 { return time.Since(r.base).Nanoseconds() }

// begin opens a span under the innermost open one.
func (r *recorder) begin(name string) { r.beginAt(name, r.now()) }

// beginAt opens a span that started earlier, at start on the recorder clock.
func (r *recorder) beginAt(name string, start int64) {
	parent := int32(-1)
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	r.spans = append(r.spans, span{name: name, start: start, parent: parent, op: r.op})
	r.stack = append(r.stack, int32(len(r.spans)-1))
}

// end closes the innermost open span and returns its duration.
func (r *recorder) end() time.Duration {
	i := r.stack[len(r.stack)-1]
	r.stack = r.stack[:len(r.stack)-1]
	s := &r.spans[i]
	s.end = r.now()
	d := s.end - s.start
	if s.parent >= 0 {
		r.spans[s.parent].children += d
	}
	return time.Duration(d)
}

// add records an already-measured span (start/end on the recorder clock)
// under the innermost open span.
func (r *recorder) add(name string, start, end int64) {
	parent := int32(-1)
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
		r.spans[parent].children += end - start
	}
	r.spans = append(r.spans, span{name: name, start: start, end: end, parent: parent, op: r.op})
}

// nextOp starts a new op: spans recorded until the next call share its id.
func (r *recorder) nextOp() { r.op++ }

// selfSum is the sum of every span's self time in seconds: its duration
// minus the part its child spans cover.
func (r *recorder) selfSum() float64 {
	var ns int64
	for i := range r.spans {
		s := &r.spans[i]
		ns += s.end - s.start - s.children
	}
	return float64(ns) / 1e9
}

// write dumps the spans as JSON lines: name, start_ns, end_ns, parent, op.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<16) // write errors surface at Flush
	for i := range r.spans {
		s := &r.spans[i]
		_, _ = fmt.Fprintf(bw, "{\"name\":%q,\"start_ns\":%d,\"end_ns\":%d,\"parent\":%d,\"op\":%d}\n",
			s.name, s.start, s.end, s.parent, s.op)
	}
	if err := bw.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// callStat is the count and busy time of one manager callback.
type callStat struct {
	calls int
	secs  float64
}

func (c *callStat) add(d time.Duration) {
	c.calls++
	c.secs += d.Seconds()
}

// tracedManager decorates the public core.Manager interface: every callback
// becomes a span and a count, and OnTick durations are kept for the tick
// percentiles. It is installed with rt.SetManager on traced runs only.
type tracedManager struct {
	inner core.Manager
	rec   *recorder

	submit, tick, complete, evicted callStat
	slowTicks                       int
	tickMS                          []float64
	// peek samples manager state after each tick (queue length, running
	// tasks); nil when the inner manager exposes none.
	peek func()
}

// slowTick is the threshold above which a tick would stall a daemon's epoch.
const slowTick = 10 * time.Millisecond

func (m *tracedManager) Name() string { return m.inner.Name() }

func (m *tracedManager) OnSubmit(t *core.Task) {
	m.rec.begin("core.onsubmit")
	m.inner.OnSubmit(t)
	m.submit.add(m.rec.end())
}

func (m *tracedManager) OnComplete(t *core.Task) {
	m.rec.begin("core.oncomplete")
	m.inner.OnComplete(t)
	m.complete.add(m.rec.end())
}

func (m *tracedManager) OnEvicted(t *core.Task) {
	m.rec.begin("core.onevicted")
	m.inner.OnEvicted(t)
	m.evicted.add(m.rec.end())
}

func (m *tracedManager) OnTick(now float64) {
	m.rec.begin("core.ontick")
	m.inner.OnTick(now)
	d := m.rec.end()
	m.tick.add(d)
	m.tickMS = append(m.tickMS, float64(d.Nanoseconds())/1e6)
	if d > slowTick {
		m.slowTicks++
	}
	if m.peek != nil {
		m.peek()
	}
}

// tracedFailureAware adds the optional FailureAware extension, so decorating
// a manager never hides its recovery policy from the runtime.
type tracedFailureAware struct {
	*tracedManager
	fa core.FailureAware
}

func (m *tracedFailureAware) OnServerDead(s *cluster.Server, displaced []*core.Task) {
	m.rec.begin("core.onserverdead")
	m.fa.OnServerDead(s, displaced)
	m.rec.end()
}

func (m *tracedFailureAware) OnServerRestored(s *cluster.Server) {
	m.rec.begin("core.onserverrestored")
	m.fa.OnServerRestored(s)
	m.rec.end()
}

// traceManager wraps inner; the result implements core.FailureAware exactly
// when inner does.
func traceManager(inner core.Manager, rec *recorder) (core.Manager, *tracedManager) {
	tm := &tracedManager{inner: inner, rec: rec}
	if fa, ok := inner.(core.FailureAware); ok {
		return &tracedFailureAware{tracedManager: tm, fa: fa}, tm
	}
	return tm, tm
}

// timedSink decorates an obs.Sink (the StreamSink writing the trace file):
// it counts events and times Emit and Close. With a recorder every Emit is
// also a span under the current op.
type timedSink struct {
	inner  obs.Sink
	rec    *recorder
	events int
	emitNS int64
	closeS float64
}

func (s *timedSink) Start(h *obs.Header) error { return s.inner.Start(h) }

func (s *timedSink) Emit(ev *obs.Event, sizeEst int) error {
	t0 := time.Now()
	err := s.inner.Emit(ev, sizeEst)
	d := time.Since(t0).Nanoseconds()
	s.events++
	s.emitNS += d
	if s.rec != nil {
		end := s.rec.now()
		s.rec.add("obs.emit", end-d, end)
	}
	return err
}

func (s *timedSink) Close(reg *obs.Registry) error {
	t0 := time.Now()
	err := s.inner.Close(reg)
	s.closeS += time.Since(t0).Seconds()
	return err
}

func (s *timedSink) RetainedBytes() (cur, high int) { return s.inner.RetainedBytes() }
