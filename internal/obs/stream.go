package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"quasar/internal/obs/prof"
)

// StreamSink encodes each accepted event to JSONL as it is emitted and spills
// it to an io.Writer, so trace memory stays bounded by one bufio buffer plus
// one line of scratch (the largest single event) no matter how many events
// the run produces. File-backed sinks write to a temporary file in the
// destination directory and finalize with an atomic rename at Close, so a
// trace survives a failed or crashed scenario: whatever was emitted before
// the failure is on disk the moment the deferred Close runs, and readers
// never observe a half-written destination path.
//
// The encoding is the same code path the buffered exporter uses, line for
// line — header, events in sequence order, then the registry's metric lines —
// so the streamed file is byte-identical to WriteJSONL output for the same
// run. TestStreamedTraceMatchesBuffered and make trace-diff pin that
// equality.
type StreamSink struct {
	// Prof, when non-nil, attributes encode+write time to the trace-export
	// subsystem. Set it before the first event.
	Prof *prof.Profiler

	w       *bufio.Writer
	enc     *json.Encoder // header and metric lines only
	line    []byte        // reused event-line scratch
	file    *os.File      // nil for writer-backed sinks
	tmpPath string
	dstPath string
	started bool
	closed  bool
	bytes   counting
	high    int
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
	dir, base := filepath.Split(path)
	if dir == "" {
		dir = "."
	}
	f, err := os.CreateTemp(dir, base+".tmp-*")
	if err != nil {
		return nil, err
	}
	s := newStreamSink(f)
	s.file, s.tmpPath, s.dstPath = f, f.Name(), path
	return s, nil
}

// NewStreamSinkWriter creates a streaming sink over an arbitrary writer (a
// network connection, a pipe, a test buffer). Close flushes but performs no
// rename.
func NewStreamSinkWriter(w io.Writer) *StreamSink { return newStreamSink(w) }

func newStreamSink(w io.Writer) *StreamSink {
	s := &StreamSink{}
	s.bytes.w = w
	s.w = bufio.NewWriterSize(&s.bytes, streamBufBytes)
	s.enc = json.NewEncoder(s.w)
	s.high = streamBufBytes
	return s
}

// streamBufBytes is the sink's only event-proportional-free memory: one
// encode buffer, regardless of trace length.
const streamBufBytes = 1 << 16

// Start implements Sink: the header is the first line of the file.
func (s *StreamSink) Start(h *Header) error {
	if s.started {
		return nil
	}
	s.started = true
	return s.enc.Encode(h)
}

// Emit implements Sink.
func (s *StreamSink) Emit(ev *Event, _ int) error {
	t0 := s.Prof.Begin()
	var err error
	if s.line, err = appendEventLine(s.line[:0], ev); err == nil {
		_, err = s.w.Write(s.line)
	}
	s.Prof.End(prof.SubTrace, t0)
	return err
}

// Close implements Sink: append the registry's metric lines, flush, and (for
// file-backed sinks) atomically rename the temporary file over the
// destination. Idempotent; safe to defer alongside an explicit call.
func (s *StreamSink) Close(reg *Registry) error {
	if s.closed {
		return nil
	}
	s.closed = true
	t0 := s.Prof.Begin()
	defer s.Prof.End(prof.SubTrace, t0)
	if !s.started { // empty trace: still header + metrics
		s.started = true
		if err := s.enc.Encode(defaultHeader()); err != nil {
			return s.abandon(err)
		}
	}
	if err := writeRegistryLines(s.enc, reg); err != nil {
		return s.abandon(err)
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
// removed and the destination path is left untouched. A no-op after Close.
func (s *StreamSink) Discard() {
	if s.closed {
		return
	}
	s.closed = true
	_ = s.abandon(nil)
}

// RetainedBytes implements Sink: the encode buffer is the whole footprint.
func (s *StreamSink) RetainedBytes() (cur, high int) {
	return s.w.Buffered(), s.high
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
