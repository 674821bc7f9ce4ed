package experiments

import (
	"bytes"
	"testing"

	"quasar/internal/obs"
)

// TestStreamedTraceMatchesBuffered is the streaming pipeline's half of the
// trace contract at scale: at the 1k-server point, the JSONL a StreamSink
// writes incrementally must be byte-identical to the buffered WriteJSONL
// export, while the tracer's retained memory stays below the bytes it
// streamed. A divergence here means the sink pipeline — not the event
// stream — broke determinism.
func TestStreamedTraceMatchesBuffered(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the at-scale scenario twice, buffered and streamed")
	}
	cfg := DefaultScaleTraceConfig()
	want, err := ScaleTrace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("buffered at-scale run emitted an empty trace")
	}
	var buf bytes.Buffer
	sink := obs.NewStreamSinkWriter(&buf)
	s, err := runScaleScenario(cfg, []obs.Sink{sink})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Tracer.Close(); err != nil {
		t.Fatal(err)
	}
	n := sink.BytesWritten()
	if n != int64(buf.Len()) {
		t.Fatalf("BytesWritten %d != buffer length %d", n, buf.Len())
	}
	if !bytes.Equal(want, buf.Bytes()) {
		t.Fatalf("streamed trace diverged from buffered at byte %d of %d",
			diffAt(want, buf.Bytes()), len(want))
	}
	if _, high := s.Tracer.RetainedBytes(); int64(high) >= n {
		t.Fatalf("tracer high water %d bytes not bounded below the %d bytes streamed", high, n)
	}
}

// diffAt returns the first index where a and b differ (or the shorter length).
func diffAt(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}
