package obs

// A Sink receives every event the tracer emits, one at a time, in sequence
// order, on the simulation goroutine. Sinks decide what to retain: the
// BufferSink keeps everything in memory (the classic tracer), the StreamSink
// encodes and spills incrementally to disk, and the RingSink keeps only the
// last N events as an always-on flight recorder.
//
// The pipeline preserves the determinism contract by construction: sequence
// assignment happens in the Tracer before the sink sees anything, so for a
// given scenario every sink observes the identical event stream, and the
// StreamSink's file is byte-identical to the buffered exporter's output.
type Sink interface {
	// Start is called once, before the first event (or at Close for an empty
	// trace), with the trace header carrying the tracer's top-K cap.
	Start(h *Header) error
	// Emit receives one event and its deterministic size estimate.
	// The event's Args slices are retained-by-reference; sinks must not
	// mutate them.
	Emit(ev *Event, sizeEst int) error
	// Close finalizes the sink; reg carries the registry whose metric lines
	// trail the event stream in serialized formats. Close must be
	// idempotent.
	Close(reg *Registry) error
	// RetainedBytes reports the sink's current and high-water retained
	// memory estimate, for the observability-at-scale benchmarks.
	RetainedBytes() (cur, high int)
}

// BufferSink retains every event in memory: the original tracer behavior,
// and what the Chrome/Prometheus exporters (which need the whole stream or
// the track list up front) require.
type BufferSink struct {
	events   []Event
	retained int
	high     int
}

// NewBufferSink returns an empty buffer sink.
func NewBufferSink() *BufferSink { return &BufferSink{} }

// Start implements Sink; the header is re-derived at export time.
func (b *BufferSink) Start(*Header) error { return nil }

// Emit implements Sink.
func (b *BufferSink) Emit(ev *Event, sizeEst int) error {
	b.events = append(b.events, *ev)
	b.retained += sizeEst
	if b.retained > b.high {
		b.high = b.retained
	}
	return nil
}

// Close implements Sink (no finalization: the buffer is exported by the
// caller through WriteJSONL / WriteChromeTrace / WritePromSnapshot).
func (b *BufferSink) Close(*Registry) error { return nil }

// RetainedBytes implements Sink.
func (b *BufferSink) RetainedBytes() (cur, high int) { return b.retained, b.high }

// Events returns the retained events in emission order. The slice is the
// sink's backing store; callers must not mutate it.
func (b *BufferSink) Events() []Event { return b.events }

// DiscardSink keeps nothing: the sink of a trace no one reads. The tracer
// still counts and meters what it accepts.
type DiscardSink struct{}

// Start implements Sink.
func (DiscardSink) Start(*Header) error { return nil }

// Emit implements Sink.
func (DiscardSink) Emit(*Event, int) error { return nil }

// Close implements Sink.
func (DiscardSink) Close(*Registry) error { return nil }

// RetainedBytes implements Sink.
func (DiscardSink) RetainedBytes() (cur, high int) { return 0, 0 }

// RingSink is a fixed-capacity flight recorder: it keeps the most recent
// events and overwrites the oldest, so an always-on tracer costs a bounded,
// configuration-chosen amount of memory no matter how long the run is. The
// retained window is exported with Events (oldest first), preserving the
// original sequence numbers so a post-mortem reader sees exactly where the
// window starts.
type RingSink struct {
	buf      []Event
	sizes    []int
	next     int // next slot to write
	emitted  int // total events observed
	retained int
	high     int
}

// NewRingSink returns a flight recorder holding the last capacity events
// (minimum 1).
func NewRingSink(capacity int) *RingSink {
	if capacity < 1 {
		capacity = 1
	}
	return &RingSink{buf: make([]Event, capacity), sizes: make([]int, capacity)}
}

// Start implements Sink.
func (r *RingSink) Start(*Header) error { return nil }

// Emit implements Sink: overwrite the oldest slot.
func (r *RingSink) Emit(ev *Event, sizeEst int) error {
	r.retained += sizeEst - r.sizes[r.next]
	if r.retained > r.high {
		r.high = r.retained
	}
	r.buf[r.next] = *ev
	r.sizes[r.next] = sizeEst
	r.next = (r.next + 1) % len(r.buf)
	r.emitted++
	return nil
}

// Close implements Sink.
func (r *RingSink) Close(*Registry) error { return nil }

// RetainedBytes implements Sink.
func (r *RingSink) RetainedBytes() (cur, high int) { return r.retained, r.high }

// Events returns a copy of the retained window, oldest first.
func (r *RingSink) Events() []Event {
	n := r.emitted
	if n > len(r.buf) {
		n = len(r.buf)
	}
	out := make([]Event, 0, n)
	start := 0
	if r.emitted > len(r.buf) {
		start = r.next // buffer is full: next slot holds the oldest event
	}
	for i := 0; i < n; i++ {
		out = append(out, r.buf[(start+i)%len(r.buf)])
	}
	return out
}
