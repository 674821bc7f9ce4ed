package obs

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// These tests cover StreamSink's tee: the subscriber list a sink made by
// NewLiveStreamSink hands its encoded lines to, batch by batch.

// collectTee drains a subscriber channel into one byte stream, returning the
// concatenation and the last cumulative drop count observed.
func collectTee(header []byte, ch <-chan Batch) ([]byte, int64) {
	var out bytes.Buffer
	out.Write(header)
	var dropped int64
	for batch := range ch {
		out.Write(batch.Data)
		dropped = batch.Dropped
	}
	return out.Bytes(), dropped
}

// TestTeeSinkByteIdentity is the tee's core contract: a subscriber attached
// before the first event receives — across the header line and every
// delivered batch — exactly the bytes a writer-backed StreamSink writes for
// the same trace, including the trailing registry metric lines flushed at
// Close. That holds for a live sink with a trace file (whose file is those
// bytes too, so the batches are the file after its header line) and for a
// subscriber-only one.
func TestTeeSinkByteIdentity(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	withFile, err := NewLiveStreamSink(path)
	if err != nil {
		t.Fatal(err)
	}
	subOnly, err := NewLiveStreamSink("")
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	tr := NewWithSinks(nil, NewStreamSinkWriter(&want), withFile, subOnly)
	_, _, fileCh := withFile.Subscribe(64)
	_, _, subCh := subOnly.Subscribe(64)

	driveTrace(tr)
	withFile.Publish() // mid-run epoch seal: the remainder rides the Close batch
	subOnly.Publish()
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(file, want.Bytes()) {
		t.Fatalf("live sink's file differs from the writer sink's output:\n--- file ---\n%s--- writer ---\n%s", file, want.String())
	}

	for name, sink := range map[string]struct {
		s  *StreamSink
		ch <-chan Batch
	}{"file": {withFile, fileCh}, "subscriber-only": {subOnly, subCh}} {
		// Subscribe returned before Start ran, so fetch the header afterwards
		// via a fresh throwaway subscriber to prove it is retained.
		_, header, lateCh := sink.s.Subscribe(1)
		if _, ok := <-lateCh; ok {
			t.Fatalf("%s: subscriber attached after Close received a batch", name)
		}
		if headerLine := want.Bytes()[:bytes.IndexByte(want.Bytes(), '\n')+1]; !bytes.Equal(header, headerLine) {
			t.Fatalf("%s: retained header %q, want the file's first line %q", name, header, headerLine)
		}
		got, dropped := collectTee(header, sink.ch)
		if dropped != 0 {
			t.Fatalf("%s: undersized? subscriber dropped %d events", name, dropped)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("%s: tee stream differs from StreamSink output:\n--- tee ---\n%s--- stream ---\n%s", name, got, want.String())
		}
	}
}

// TestTeeSinkDropsWhenSubscriberStalls pins the backpressure contract: a full
// subscriber channel loses whole batches, never blocks Publish, and the loss
// is visible both on the sink-wide counter and on the next delivered batch.
func TestTeeSinkDropsWhenSubscriberStalls(t *testing.T) {
	tee, err := NewLiveStreamSink("")
	if err != nil {
		t.Fatal(err)
	}
	tr := NewWithSinks(nil, tee)
	id, _, ch := tee.Subscribe(1)

	emit := func(name string) {
		tr.Instant("manager", "sched", name)
		tee.Publish()
	}
	emit("e1") // fills the depth-1 channel
	emit("e2") // dropped
	emit("e3") // dropped
	if got := tee.DroppedTotal(); got != 2 {
		t.Fatalf("DroppedTotal = %d, want 2", got)
	}
	first := <-ch
	if first.Dropped != 0 || first.Events != 1 {
		t.Fatalf("first batch = %+v, want 1 event, 0 dropped at delivery time", first)
	}
	emit("e4")
	second := <-ch
	if second.Dropped != 2 {
		t.Fatalf("post-stall batch carries Dropped=%d, want the cumulative 2", second.Dropped)
	}
	if !bytes.Contains(second.Data, []byte(`"e4"`)) {
		t.Fatalf("post-stall batch missing the fresh event: %s", second.Data)
	}

	tee.Unsubscribe(id)
	tee.Unsubscribe(id) // idempotent
	if _, ok := <-ch; ok {
		t.Fatal("unsubscribed channel still open")
	}
	if got := tee.Subscribers(); got != 0 {
		t.Fatalf("Subscribers = %d after unsubscribe, want 0", got)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestTeeSinkIdleFastPath pins the zero-subscriber cost model: until the
// first Publish every event is held (the prologue a subscriber attached
// before pacing starts must see); after it, events emitted with nobody
// attached are not retained, and a subscriber-only sink does not even encode
// them.
func TestTeeSinkIdleFastPath(t *testing.T) {
	tee, err := NewLiveStreamSink("")
	if err != nil {
		t.Fatal(err)
	}
	tr := NewWithSinks(nil, tee)
	tr.Instant("manager", "sched", "prologue")
	if cur, _ := tee.RetainedBytes(); cur == 0 {
		t.Fatal("the prologue was not held before the first Publish")
	}
	tee.Publish() // arms the fast path; prologue batch evaporates (no subs)
	tr.Instant("manager", "sched", "unheard")
	if cur, _ := tee.RetainedBytes(); cur != 0 {
		t.Fatalf("idle tee retained %d bytes after the first Publish", cur)
	}
	// An event that cannot encode proves the idle sink never tried.
	unencodable := Event{Seq: 9, Name: "idle", Args: []Arg{{Key: "ch", Val: make(chan int)}}}
	if err := tee.Emit(&unencodable, 0); err != nil {
		t.Fatalf("idle subscriber-only sink encoded an event: %v", err)
	}

	// A late subscriber still gets the header and everything from here on.
	_, header, ch := tee.Subscribe(8)
	if !bytes.Contains(header, []byte(`"trace"`)) {
		t.Fatalf("late subscriber header = %q, want the trace header line", header)
	}
	tr.Instant("manager", "sched", "heard")
	tee.Publish()
	batch := <-ch
	if !bytes.Contains(batch.Data, []byte(`"heard"`)) || bytes.Contains(batch.Data, []byte(`"unheard"`)) {
		t.Fatalf("late subscriber batch = %s, want only post-attach events", batch.Data)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestFileOnlySinkHasNoSubscriberList: the sinks quasar-sim, -replay and the
// exporters use are built without the tee, so their Emit takes no lock.
func TestFileOnlySinkHasNoSubscriberList(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	file, err := NewStreamSink(path)
	if err != nil {
		t.Fatal(err)
	}
	defer file.Discard()
	if file.subs != nil || NewStreamSinkWriter(&bytes.Buffer{}).subs != nil {
		t.Fatal("a file- or writer-backed sink carries a subscriber list")
	}
}
