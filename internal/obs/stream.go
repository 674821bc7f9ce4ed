package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"sync"
	"sync/atomic"

	"quasar/internal/obs/prof"
)

// StreamSink is the one JSONL trace writer. It encodes the header line, each
// event's line and the registry's metric tail once, as they happen,
// and hands those bytes to up to two outputs:
//
//   - a writer: a trace file or any io.Writer, behind one bufio buffer, so
//     trace memory stays bounded by that buffer plus one line of scratch (the
//     largest single event) no matter how many events the run produces.
//     File-backed sinks write to a temporary file in the destination
//     directory and finalize with an atomic rename at Close, so a trace
//     survives a failed or crashed scenario: whatever was emitted before the
//     failure is on disk the moment the deferred Close runs, and readers
//     never observe a half-written destination path;
//   - live subscribers (NewLiveStreamSink only): the event lines since the
//     last Publish, delivered as one batch per Publish (see Subscribe).
//
// WriteJSONL and WriteEventsJSONL replay a buffer's events through a
// writer-backed StreamSink, so a streamed file, a subscriber's stream after
// the header, and a buffered export of the same run are the same bytes by
// construction. TestStreamedTraceMatchesBuffered and make trace-diff pin that
// equality.
//
// Determinism: the sink only observes the already-sequenced event stream and
// never feeds anything back into it, so attaching subscribers cannot perturb
// the trace. It reads no wall clock; batch pacing is the caller's Publish
// cadence. Emit runs on the simulation goroutine. Subscribe, Unsubscribe and
// the counters may be called from any goroutine; a sink without subscribers
// takes no lock at all.
type StreamSink struct {
	// Prof, when non-nil, attributes encode+write time to the trace-export
	// subsystem. Set it before the first event.
	Prof *prof.Profiler

	w       *bufio.Writer // nil for a subscriber-only sink
	line    []byte        // reused event-line scratch
	file    *os.File      // nil for writer-backed sinks
	tmpPath string
	dstPath string
	started bool
	closed  bool
	bytes   counting
	subs    *subscribers // nil unless made by NewLiveStreamSink
}

// counting wraps the underlying writer to count bytes written.
type counting struct {
	w io.Writer
	n int64
}

func (c *counting) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// NewStreamSink creates a file-backed streaming sink for path. The temporary
// file is created immediately (in path's directory, so the final rename
// cannot cross filesystems); call Close to finalize or Discard to abandon it.
func NewStreamSink(path string) (*StreamSink, error) {
	f, err := CreateTemp(path)
	if err != nil {
		return nil, err
	}
	s := NewStreamSinkWriter(f)
	s.file, s.tmpPath, s.dstPath = f, f.Name(), path
	return s, nil
}

// CreateTemp creates a new temporary file next to path, named
// path.tmp-<pid>-<n> with the first n not taken, for the caller to fill and
// then rename onto path. The file gets os.Create's mode, 0666 before the
// umask, so the renamed file has the permissions of any other output file:
// os.CreateTemp's 0600 would make it owner-only.
func CreateTemp(path string) (*os.File, error) {
	for n := 0; ; n++ {
		name := fmt.Sprintf("%s.tmp-%d-%d", path, os.Getpid(), n)
		f, err := os.OpenFile(name, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o666)
		if !errors.Is(err, fs.ErrExist) {
			return f, err
		}
	}
}

// NewStreamSinkWriter creates a streaming sink over an arbitrary writer (a
// network connection, a pipe, a test buffer). Close flushes but performs no
// rename.
func NewStreamSinkWriter(w io.Writer) *StreamSink {
	s := &StreamSink{}
	s.bytes.w = w
	s.w = bufio.NewWriterSize(&s.bytes, streamBufBytes)
	return s
}

// NewLiveStreamSink creates a sink that accepts subscribers: file-backed as
// NewStreamSink when path is set, subscriber-only when it is "".
func NewLiveStreamSink(path string) (*StreamSink, error) {
	s := &StreamSink{}
	if path != "" {
		var err error
		if s, err = NewStreamSink(path); err != nil {
			return nil, err
		}
	}
	s.subs = &subscribers{subs: make(map[int]*subscriber)}
	return s, nil
}

// streamBufBytes is the sink's only event-proportional-free memory: one
// encode buffer, regardless of trace length.
const streamBufBytes = 1 << 16

// Start implements Sink: the header is the first line of the file and of
// every subscriber's stream.
func (s *StreamSink) Start(h *Header) error {
	if s.started {
		return nil
	}
	s.started = true
	var hb bytes.Buffer
	if err := json.NewEncoder(&hb).Encode(h); err != nil {
		return err
	}
	if s.subs != nil {
		s.subs.setHeader(hb.Bytes())
	}
	return s.write(hb.Bytes())
}

// Emit implements Sink. A subscriber-only sink that nobody listens to (after
// the first Publish) does not even encode the event.
func (s *StreamSink) Emit(ev *Event, _ int) error {
	live := s.subs != nil && s.subs.listening()
	if s.w == nil && !live {
		return nil
	}
	t0 := s.Prof.Begin()
	var err error
	if s.line, err = appendEventLine(s.line[:0], ev); err == nil {
		if live {
			s.subs.add(s.line)
		}
		err = s.write(s.line)
	}
	s.Prof.End(prof.SubTrace, t0)
	return err
}

// write hands encoded bytes to the writer, if the sink has one.
func (s *StreamSink) write(p []byte) error {
	if s.w == nil {
		return nil
	}
	_, err := s.w.Write(p)
	return err
}

// Close implements Sink: append the registry's metric lines, deliver them to
// the subscribers with the events not yet published and close every
// subscriber channel, then flush and (for file-backed sinks) atomically
// rename the temporary file over the destination. Idempotent; safe to defer
// alongside an explicit call.
func (s *StreamSink) Close(reg *Registry) error {
	if s.closed {
		return nil
	}
	s.closed = true
	t0 := s.Prof.Begin()
	defer s.Prof.End(prof.SubTrace, t0)
	if !s.started { // empty trace: still header + metrics
		if err := s.Start(header(0)); err != nil {
			s.subs.finish(nil)
			return s.abandon(err)
		}
	}
	// The metric tail is encoded once, straight into the writer and, for
	// subscribers, into the final batch.
	var tail bytes.Buffer
	var out []io.Writer
	if s.w != nil {
		out = append(out, s.w)
	}
	if s.subs != nil {
		out = append(out, &tail)
	}
	if err := writeRegistryLines(json.NewEncoder(io.MultiWriter(out...)), reg); err != nil {
		s.subs.finish(nil)
		return s.abandon(err)
	}
	s.subs.finish(tail.Bytes())
	if s.w == nil {
		return nil
	}
	if err := s.w.Flush(); err != nil {
		return s.abandon(err)
	}
	if s.file == nil {
		return nil
	}
	if err := s.file.Close(); err != nil {
		return s.abandon(err)
	}
	if err := os.Rename(s.tmpPath, s.dstPath); err != nil {
		_ = os.Remove(s.tmpPath)
		return err
	}
	return nil
}

// abandon tears down the temporary file after a write failure so no orphan
// remains, and returns the original error.
func (s *StreamSink) abandon(err error) error {
	if s.file != nil {
		_ = s.file.Close()
		_ = os.Remove(s.tmpPath)
		s.file = nil
	}
	return err
}

// Discard abandons the sink without finalizing: the temporary file is
// removed, the destination path is left untouched and subscribers are
// closed without the metric tail. A no-op after Close.
func (s *StreamSink) Discard() {
	if s.closed {
		return
	}
	s.closed = true
	s.subs.finish(nil)
	_ = s.abandon(nil)
}

// RetainedBytes implements Sink: the encode buffer plus the batch pending
// for subscribers.
func (s *StreamSink) RetainedBytes() (cur, high int) {
	if s.w != nil {
		cur, high = s.w.Buffered(), streamBufBytes
	}
	if s.subs != nil {
		c, h := s.subs.retained()
		cur, high = cur+c, high+h
	}
	return cur, high
}

// BytesWritten returns the number of encoded bytes pushed to the underlying
// writer so far (buffered bytes not yet flushed are excluded).
func (s *StreamSink) BytesWritten() int64 { return s.bytes.n }

// Path returns the destination path of a file-backed sink ("" otherwise).
func (s *StreamSink) Path() string { return s.dstPath }

// String identifies the sink in errors.
func (s *StreamSink) String() string {
	if s.dstPath != "" {
		return fmt.Sprintf("stream(%s)", s.dstPath)
	}
	return "stream(writer)"
}

// Batch is one delivery to a subscriber: a byte slice of complete NDJSON
// lines (owned by the receiver), the number of event lines it carries (the
// final batch may also carry the metric tail), and the subscriber's
// cumulative dropped-event count at delivery time.
type Batch struct {
	Data    []byte
	Events  int
	Dropped int64
}

// Subscribe attaches a subscriber with a batch channel of depth bufBatches
// (minimum 1) and returns its id, the header line bytes (nil if the stream
// has not started), and the receive channel. The channel closes when the sink
// closes; cancel with Unsubscribe. This method and the four after it need a
// sink made by NewLiveStreamSink.
//
// Until the first Publish the sink holds every event line, so a subscriber
// attached before the caller starts publishing (the serve daemon's
// world-build prologue) receives the whole stream, byte-identical to a trace
// file. After that, events are held only while someone is subscribed.
//
// Backpressure: a subscriber that falls behind loses whole batches — Publish
// never blocks the engine — and the loss is explicit: the subscriber's next
// delivered batch carries its cumulative dropped-event count, and
// DroppedTotal counts sink-wide.
func (s *StreamSink) Subscribe(bufBatches int) (id int, header []byte, ch <-chan Batch) {
	return s.subs.subscribe(bufBatches)
}

// Unsubscribe detaches a subscriber and closes its channel. Idempotent.
func (s *StreamSink) Unsubscribe(id int) { s.subs.unsubscribe(id) }

// Publish seals the event lines since the last Publish into one batch and
// hands it to every subscriber without blocking. The serve pacer calls it
// after each epoch seal.
func (s *StreamSink) Publish() { s.subs.publish() }

// Subscribers returns the current subscriber count.
func (s *StreamSink) Subscribers() int64 { return s.subs.count.Load() }

// DroppedTotal returns the cumulative number of events dropped across all
// subscribers.
func (s *StreamSink) DroppedTotal() int64 { return s.subs.dropped.Load() }

// subscribers is a StreamSink's live subscriber list and the batch pending
// for it.
type subscribers struct {
	count     atomic.Int64 // fast-path guard read outside mu
	published atomic.Bool  // first Publish happened; empty-list fast path armed
	dropped   atomic.Int64 // events dropped across all subscribers, ever

	mu      sync.Mutex
	header  []byte
	buf     bytes.Buffer // encoded lines since the last Publish
	pending int          // event lines currently in buf
	subs    map[int]*subscriber
	nextID  int
	closed  bool
	high    int
}

// subscriber is one subscriber's state (owned by subscribers.mu).
type subscriber struct {
	ch      chan Batch
	dropped int64
}

// listening reports whether an event must be added to the pending batch:
// always before the first Publish, afterwards only while someone is
// subscribed. Two atomic loads, no lock.
func (l *subscribers) listening() bool {
	return !l.published.Load() || l.count.Load() > 0
}

func (l *subscribers) setHeader(h []byte) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.header = h
}

// add appends one encoded event line to the pending batch.
func (l *subscribers) add(line []byte) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return
	}
	_, _ = l.buf.Write(line) // a bytes.Buffer write cannot fail
	l.pending++
	l.high = max(l.high, l.buf.Len())
}

func (l *subscribers) publish() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.published.Store(true)
	l.publishLocked()
}

// publishLocked distributes and resets the pending batch (mu held): a full
// subscriber channel drops the whole batch for that subscriber and advances
// its drop counter.
func (l *subscribers) publishLocked() {
	if l.buf.Len() == 0 {
		return
	}
	data := append([]byte(nil), l.buf.Bytes()...)
	events := l.pending
	l.buf.Reset()
	l.pending = 0
	for _, sub := range l.subs {
		select {
		case sub.ch <- Batch{Data: data, Events: events, Dropped: sub.dropped}:
		default:
			sub.dropped += int64(events)
			l.dropped.Add(int64(events))
		}
	}
}

func (l *subscribers) subscribe(bufBatches int) (id int, header []byte, ch <-chan Batch) {
	if bufBatches < 1 {
		bufBatches = 1
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	sub := &subscriber{ch: make(chan Batch, bufBatches)}
	id = l.nextID
	l.nextID++
	l.subs[id] = sub
	l.count.Store(int64(len(l.subs)))
	if l.closed {
		close(sub.ch)
	}
	return id, l.header, sub.ch
}

func (l *subscribers) unsubscribe(id int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	sub, ok := l.subs[id]
	if !ok {
		return
	}
	delete(l.subs, id)
	l.count.Store(int64(len(l.subs)))
	close(sub.ch)
}

// finish delivers the events not yet published plus tail (the metric lines)
// as the final batch when anyone is subscribed, then closes every
// subscriber channel. Nil-safe, so a sink without subscribers can call it.
func (l *subscribers) finish(tail []byte) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return
	}
	if len(l.subs) > 0 {
		_, _ = l.buf.Write(tail)
		l.high = max(l.high, l.buf.Len())
		l.publishLocked()
	}
	l.closed = true
	for id, sub := range l.subs {
		delete(l.subs, id)
		close(sub.ch)
	}
	l.count.Store(0)
}

func (l *subscribers) retained() (cur, high int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.Len(), l.high
}
