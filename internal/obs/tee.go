package obs

import (
	"bytes"
	"encoding/json"
	"sync"
	"sync/atomic"
)

// TeeSink is the live-subscription sink: it encodes accepted events with the
// same per-line encoder as the JSONL exporters and distributes them to
// attached subscribers in epoch-sized batches. The serve daemon attaches one
// next to its StreamSink and calls Publish after each sealed epoch, which is
// what GET /v1/trace/stream serves from.
//
// Determinism: the sink only observes the already-sequenced event stream and
// never feeds anything back into it, so attaching it (or any number of
// subscribers) cannot perturb the trace. It reads no wall clock — pacing is
// the caller's Publish cadence.
//
// Backpressure: each subscriber owns a bounded channel of batches. A
// subscriber that falls behind loses whole batches — Publish never blocks the
// engine — and the loss is explicit: the subscriber's next delivered batch
// carries its cumulative dropped-event count, and DroppedTotal exposes the
// sink-wide counter for metrics.
//
// Cost: until the first Publish, events buffer unconditionally (so a
// subscriber attached before the daemon starts pacing sees the world-build
// prologue and therefore the byte-identical full stream). After that, Emit
// returns immediately when no subscriber is attached.
type TeeSink struct {
	subCount  atomic.Int64 // fast-path guard read outside mu
	published atomic.Bool  // first Publish happened; empty-subscriber fast path armed
	dropped   atomic.Int64 // events dropped across all subscribers, ever

	mu      sync.Mutex
	header  []byte
	buf     bytes.Buffer // encoded lines since the last Publish
	pending int          // events currently encoded in buf
	subs    map[int]*teeSub
	nextID  int
	closed  bool
	high    int
}

// TeeBatch is one delivery to a subscriber: a byte slice of complete NDJSON
// lines (owned by the receiver), the number of events it carries, and the
// subscriber's cumulative dropped-event count at delivery time.
type TeeBatch struct {
	Data    []byte
	Events  int
	Dropped int64
}

// teeSub is one subscriber's state (owned by TeeSink.mu).
type teeSub struct {
	ch      chan TeeBatch
	dropped int64
}

// NewTeeSink returns an empty tee with no subscribers.
func NewTeeSink() *TeeSink {
	return &TeeSink{subs: make(map[int]*teeSub)}
}

// Start implements Sink: the header line is retained so every subscriber's
// stream can begin with it, exactly as a trace file does.
func (t *TeeSink) Start(h *Header) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	var hb bytes.Buffer
	if err := json.NewEncoder(&hb).Encode(h); err != nil {
		return err
	}
	t.header = hb.Bytes()
	return nil
}

// Emit implements Sink: encode the event into the pending batch. Skipped
// entirely when nobody is subscribed (after the first Publish), so an idle
// tee costs two atomic loads per event.
func (t *TeeSink) Emit(ev *Event, _ int) error {
	if t.published.Load() && t.subCount.Load() == 0 {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil
	}
	line, err := appendEventLine(t.buf.AvailableBuffer(), ev)
	if err != nil {
		return err
	}
	_, _ = t.buf.Write(line) // a bytes.Buffer write cannot fail
	t.pending++
	if t.buf.Len() > t.high {
		t.high = t.buf.Len()
	}
	return nil
}

// Publish seals the pending batch and hands it to every subscriber without
// blocking: a full subscriber channel drops the whole batch for that
// subscriber and advances its drop counter. Called by the serve pacer after
// each epoch seal.
func (t *TeeSink) Publish() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.published.Store(true)
	t.publishLocked()
}

// publishLocked distributes and resets the pending batch (mu held).
func (t *TeeSink) publishLocked() {
	if t.pending == 0 {
		return
	}
	data := append([]byte(nil), t.buf.Bytes()...)
	events := t.pending
	t.buf.Reset()
	t.pending = 0
	for _, sub := range t.subs {
		select {
		case sub.ch <- TeeBatch{Data: data, Events: events, Dropped: sub.dropped}:
		default:
			sub.dropped += int64(events)
			t.dropped.Add(int64(events))
		}
	}
}

// Subscribe attaches a subscriber with a batch channel of depth bufBatches
// (minimum 1) and returns its id, the header line bytes (nil if the stream
// has not started), and the receive channel. The channel closes when the sink
// closes; cancel with Unsubscribe.
func (t *TeeSink) Subscribe(bufBatches int) (id int, header []byte, ch <-chan TeeBatch) {
	if bufBatches < 1 {
		bufBatches = 1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	sub := &teeSub{ch: make(chan TeeBatch, bufBatches)}
	id = t.nextID
	t.nextID++
	t.subs[id] = sub
	t.subCount.Store(int64(len(t.subs)))
	if t.closed {
		close(sub.ch)
	}
	return id, t.header, sub.ch
}

// Unsubscribe detaches a subscriber and closes its channel. Idempotent.
func (t *TeeSink) Unsubscribe(id int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	sub, ok := t.subs[id]
	if !ok {
		return
	}
	delete(t.subs, id)
	t.subCount.Store(int64(len(t.subs)))
	close(sub.ch)
}

// Close implements Sink: flush the remaining events, append the registry's
// trailing metric lines (so a subscriber that stays to the end receives the
// same complete stream a trace file holds), then close every subscriber
// channel. Idempotent.
func (t *TeeSink) Close(reg *Registry) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil
	}
	if len(t.subs) > 0 {
		before := t.buf.Len()
		if err := writeRegistryLines(json.NewEncoder(&t.buf), reg); err != nil {
			return err
		}
		if t.buf.Len() > t.high {
			t.high = t.buf.Len()
		}
		if t.buf.Len() > before {
			t.pending++ // the metric tail rides the final batch
		}
		t.publishLocked()
	}
	t.closed = true
	for id, sub := range t.subs {
		delete(t.subs, id)
		close(sub.ch)
	}
	t.subCount.Store(0)
	return nil
}

// RetainedBytes implements Sink: the pending batch is the only retained
// state.
func (t *TeeSink) RetainedBytes() (cur, high int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.buf.Len(), t.high
}

// Subscribers returns the current subscriber count.
func (t *TeeSink) Subscribers() int64 { return t.subCount.Load() }

// DroppedTotal returns the cumulative number of events dropped across all
// subscribers.
func (t *TeeSink) DroppedTotal() int64 { return t.dropped.Load() }
