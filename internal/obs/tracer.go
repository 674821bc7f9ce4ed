// Package obs is the observability subsystem: a deterministic, zero-wall-clock
// structured event tracer feeding a pipeline of sinks (in-memory buffer,
// streaming JSONL spill, fixed-capacity flight recorder), plus a
// counters/gauges registry, with exporters for JSONL event logs, Chrome
// trace_event JSON, and Prometheus-style text snapshots.
//
// Determinism contract. Events are timestamped on the simulation clock (an
// injected func() float64, normally sim.Engine.Now) and carry a sequence
// number assigned at emission. All emission happens on the simulation
// goroutine — the discrete-event engine fires events one at a time, so calls
// arrive in a fixed order, and every emitted event reaches every sink: seq is
// emission order. Under those rules the event stream, and therefore every
// sink's and exporter's output, is byte-identical from run to run. The one
// volume control, the top-K cap on schedule-decision candidate rankings, is
// applied by the scheduler where it builds the decision; the tracer only
// carries the cap and writes it into the trace header.
//
// Cost contract. A nil *Tracer is the off state: every method is nil-safe and
// returns immediately, so instrumented code pays one pointer test per site and
// allocates nothing. Call sites that assemble argument payloads must guard
// them with Enabled(). Memory is owned by the sinks: the default BufferSink
// retains everything (what the Chrome/Prometheus exporters need), while
// StreamSink and RingSink keep the tracer's footprint bounded at any scale.
package obs

// Arg is one key/value pair of an event payload. Payloads are ordered slices,
// never maps, so serialization order is part of the emission site, not of Go's
// randomized map iteration.
type Arg struct {
	Key string
	Val any
}

// Event phases, mirroring the Chrome trace_event vocabulary: sync spans must
// nest within a track, async spans (placements that overlap arbitrarily on a
// server) are paired by ID, instants and counters stand alone.
const (
	PhaseInstant    = 'i'
	PhaseBegin      = 'B'
	PhaseEnd        = 'E'
	PhaseAsyncBegin = 'b'
	PhaseAsyncEnd   = 'e'
	PhaseCounter    = 'C'
)

// Event is one trace record.
type Event struct {
	// Seq is the stable, contiguous emission sequence number (from 1).
	Seq uint64
	// Time is the simulation clock reading at emission, in seconds.
	Time float64
	// Phase is one of the Phase constants.
	Phase byte
	// ID pairs async begin/end events; empty otherwise.
	ID string
	// Cat groups related event names (e.g. "sched", "runtime", "classify").
	Cat string
	// Name identifies the event type (e.g. "sched.schedule").
	Name string
	// Track is the timeline the event belongs to: "server/3", "workload/x",
	// or a singleton like "manager".
	Track string
	// Args is the ordered payload.
	Args []Arg
}

// Tracer sequences events and fans them out to its sinks against an
// injected simulation clock. The zero value is not usable; use New or
// NewWithSinks. A nil Tracer is the disabled state.
type Tracer struct {
	clock    func() float64
	seq      uint64 // events emitted so far; the last event's Seq
	reg      *Registry
	topK     int
	sinks    []Sink
	buffer   *BufferSink // first buffer sink, for the whole-trace exporters
	scratch  Event       // reused per emission so dispatch allocates nothing itself
	started  bool
	closed   bool
	err      error
	bytesEst int64
}

// New returns a tracer with a single in-memory BufferSink — the classic
// record-everything tracer the exporters and tests build on. A nil clock pins
// every event to t=0 (useful for tests and offline studies that pass explicit
// times).
func New(clock func() float64) *Tracer { return NewWithSinks(clock, NewBufferSink()) }

// NewWithSinks returns a tracer fanning every event out to the given
// sinks in order. Pass a BufferSink to keep the whole-trace exporters
// (Chrome, Prometheus, buffered JSONL) available; a StreamSink and/or
// RingSink alone keeps memory bounded at any scale.
func NewWithSinks(clock func() float64, sinks ...Sink) *Tracer {
	t := &Tracer{clock: clock, reg: NewRegistry(), sinks: sinks}
	for _, s := range sinks {
		if b, ok := s.(*BufferSink); ok && t.buffer == nil {
			t.buffer = b
		}
	}
	// The tracer meters itself: the event count and the events'
	// deterministic size estimate are pure functions of the event stream, so
	// these lines are byte-identical across sinks, unlike per-sink retained
	// memory (see Sink.RetainedBytes, which feeds the benchmarks instead).
	// The dropped counter always reads 0 (no event is dropped); it stays
	// registered because every trace's metric tail carries it.
	t.reg.Gauge("tracer_events", "Events accepted into the trace stream.", func() float64 { return float64(t.seq) })
	t.reg.Gauge("tracer_bytes", "Deterministic size estimate of all accepted trace events, bytes.", func() float64 { return float64(t.bytesEst) })
	t.reg.Counter("tracer_events_dropped_total", "Events dropped by trace controls (level filters, workload sampling).")
	return t
}

// SetTopK sets the cap on schedule-decision candidate rankings: the
// scheduler records the k best candidates plus every picked server, and
// counts the rest in CandidatesDropped; 0 records full rankings. Call
// before the first event: the cap is written into the trace header when
// the stream starts.
func (t *Tracer) SetTopK(k int) {
	if t == nil {
		return
	}
	t.topK = k
}

// TopK returns the candidate-ranking cap (0 for nil: full rankings).
func (t *Tracer) TopK() int {
	if t == nil {
		return 0
	}
	return t.topK
}

// Header returns the trace header the stream carries (the default header for
// a nil tracer).
func (t *Tracer) Header() Header { return *header(t.TopK()) }

// Enabled reports whether the tracer records events. It is the guard for
// building argument payloads at instrumentation sites.
func (t *Tracer) Enabled() bool { return t != nil }

// Registry returns the tracer's counters/gauges registry (nil for a nil
// tracer; Registry methods are nil-safe in turn).
func (t *Tracer) Registry() *Registry {
	if t == nil {
		return nil
	}
	return t.reg
}

// now reads the clock.
func (t *Tracer) now() float64 {
	if t.clock == nil {
		return 0
	}
	return t.clock()
}

// start delivers the header to every sink, once, before the first event.
func (t *Tracer) start() {
	if t.started {
		return
	}
	t.started = true
	h := header(t.topK)
	for _, s := range t.sinks {
		if err := s.Start(h); err != nil {
			t.fail(err)
		}
	}
}

// fail records the first sink error; later events still reach healthy sinks.
func (t *Tracer) fail(err error) {
	if t.err == nil {
		t.err = err
	}
}

// Err returns the first sink error encountered, if any.
func (t *Tracer) Err() error {
	if t == nil {
		return nil
	}
	return t.err
}

// emit gives one event the next sequence number and fans it out to every
// sink. The scratch event is reused across emissions, so the pipeline itself
// allocates nothing; sinks copy what they retain and the pointer is valid
// only for the duration of the Emit call.
func (t *Tracer) emit(tm float64, phase byte, id, track, cat, name string, args []Arg) {
	t.start()
	t.seq++
	t.scratch = Event{
		Seq: t.seq, Time: tm, Phase: phase, ID: id,
		Cat: cat, Name: name, Track: track, Args: args,
	}
	sz := eventSize(&t.scratch)
	t.bytesEst += int64(sz)
	for _, s := range t.sinks {
		if err := s.Emit(&t.scratch, sz); err != nil {
			t.fail(err)
		}
	}
}

// Close finalizes every sink (streaming sinks append the registry's metric
// lines, flush, and atomically rename into place). Idempotent; returns the
// first error any sink reported over the tracer's lifetime. Callers that
// stream should defer Close so a failed run still lands its trace.
func (t *Tracer) Close() error {
	if t == nil {
		return nil
	}
	if !t.closed {
		t.closed = true
		t.start() // an empty trace still gets header + metric lines
		for _, s := range t.sinks {
			if err := s.Close(t.reg); err != nil {
				t.fail(err)
			}
		}
	}
	return t.err
}

// RetainedBytes sums the sinks' current and high-water retained-memory
// estimates — the benchmark-facing view of trace memory (per-sink and
// therefore NOT part of the deterministic stream; see tracer_bytes for the
// stream-stable cumulative estimate).
func (t *Tracer) RetainedBytes() (cur, high int) {
	if t == nil {
		return 0, 0
	}
	for _, s := range t.sinks {
		c, h := s.RetainedBytes()
		cur += c
		high += h
	}
	return cur, high
}

// BytesEstimate returns the deterministic cumulative size estimate of all
// events — the same number the tracer_bytes gauge exposes. Unlike
// RetainedBytes it is a function of the event stream alone, so it is stable
// across sinks.
func (t *Tracer) BytesEstimate() int64 {
	if t == nil {
		return 0
	}
	return t.bytesEst
}

// Instant records a standalone event at the current sim time.
func (t *Tracer) Instant(track, cat, name string, args ...Arg) {
	if t == nil {
		return
	}
	t.emit(t.now(), PhaseInstant, "", track, cat, name, args)
}

// InstantAt records a standalone event at an explicit time, for studies that
// run their own local clock (e.g. the straggler study's fixed-step grid).
func (t *Tracer) InstantAt(tm float64, track, cat, name string, args ...Arg) {
	if t == nil {
		return
	}
	t.emit(tm, PhaseInstant, "", track, cat, name, args)
}

// Begin opens a synchronous span on a track. Sync spans must strictly nest
// per track; use BeginAsync for overlapping intervals.
func (t *Tracer) Begin(track, cat, name string, args ...Arg) {
	if t == nil {
		return
	}
	t.emit(t.now(), PhaseBegin, "", track, cat, name, args)
}

// End closes the innermost open synchronous span with this name on the track.
func (t *Tracer) End(track, cat, name string) {
	if t == nil {
		return
	}
	t.emit(t.now(), PhaseEnd, "", track, cat, name, nil)
}

// BeginAsync opens an async span; id pairs it with its EndAsync. Async spans
// may overlap freely on a track (a server hosting several placements).
func (t *Tracer) BeginAsync(id, track, cat, name string, args ...Arg) {
	if t == nil {
		return
	}
	t.emit(t.now(), PhaseAsyncBegin, id, track, cat, name, args)
}

// EndAsync closes the async span opened under id.
func (t *Tracer) EndAsync(id, track, cat, name string, args ...Arg) {
	if t == nil {
		return
	}
	t.emit(t.now(), PhaseAsyncEnd, id, track, cat, name, args)
}

// Counter records sampled numeric values on a track; Chrome renders counter
// events as stacked area charts.
func (t *Tracer) Counter(track, cat, name string, args ...Arg) {
	if t == nil {
		return
	}
	t.emit(t.now(), PhaseCounter, "", track, cat, name, args)
}

// Len returns the number of emitted events (0 for a nil tracer). Identical
// across sink configurations: what the stream carried, not what a sink
// retained.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return int(t.seq)
}

// Events returns the recorded events in emission order, when a BufferSink is
// attached (nil otherwise — a stream-only tracer retains nothing to return).
// The slice is the sink's backing store; callers must not mutate it.
func (t *Tracer) Events() []Event {
	if t == nil || t.buffer == nil {
		return nil
	}
	return t.buffer.Events()
}

// Tracks returns every track name in order of first appearance (BufferSink
// required). Servers and workloads each get their own track, which is what
// gives the Chrome export one row per server and one per workload.
func (t *Tracer) Tracks() []string {
	events := t.Events()
	if events == nil {
		return nil
	}
	seen := make(map[string]bool, 16)
	var out []string
	for i := range events {
		tr := events[i].Track
		if !seen[tr] {
			seen[tr] = true
			out = append(out, tr)
		}
	}
	return out
}

// eventSize is the deterministic per-event size estimate: a pure function of
// the event fields (string lengths, payload shapes), never of allocator or
// encoder state, so cumulative totals are byte-identical across runs and
// sink configurations. It approximates in-memory retained cost;
// encoded JSONL is the same order of magnitude.
func eventSize(ev *Event) int {
	n := 64 + len(ev.ID) + len(ev.Cat) + len(ev.Name) + len(ev.Track)
	for i := range ev.Args {
		n += 16 + len(ev.Args[i].Key) + argSize(ev.Args[i].Val)
	}
	return n
}

// argSize estimates one payload value deterministically; unknown scalar
// types cost their interface word.
func argSize(v any) int {
	switch x := v.(type) {
	case string:
		return 16 + len(x)
	case []string:
		n := 24
		for _, s := range x {
			n += 16 + len(s)
		}
		return n
	case ScheduleDecision:
		return schedDecisionSize(&x)
	case AdmitDecision:
		return admitDecisionSize(&x)
	case AdjustDecision:
		return adjustDecisionSize(&x)
	default:
		return 16
	}
}

func schedDecisionSize(d *ScheduleDecision) int {
	n := 96 + len(d.Workload) + len(d.Outcome)
	for i := range d.Candidates {
		n += 96 + len(d.Candidates[i].Platform)
	}
	n += 48 * len(d.Picks)
	for _, e := range d.Evictions {
		n += 16 + len(e)
	}
	return n
}

func admitDecisionSize(d *AdmitDecision) int {
	return 80 + len(d.Workload) + len(d.Class) + 8*(len(d.Tol)+len(d.Caused))
}

func adjustDecisionSize(d *AdjustDecision) int {
	n := 48 + len(d.Workload)
	for _, a := range d.Actions {
		n += 16 + len(a)
	}
	return n
}
