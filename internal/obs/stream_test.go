package obs

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// driveTrace emits a fixed event sequence plus registry entries into tr.
// Every sink configuration in these tests replays the same sequence, so any
// byte difference between their outputs is a pipeline bug, not input skew.
func driveTrace(tr *Tracer) {
	now := 0.0
	tr.clock = func() float64 { return now }
	tr.Instant("manager", "sched", "admit", Arg{Key: "workload", Val: "w0"})
	tr.BeginAsync("w0@2", "server/2", "place", "w0",
		Arg{Key: "cores", Val: 4}, Arg{Key: "quality", Val: 0.75})
	now = 10
	tr.Begin("manager", "sched", "decision")
	now = 12.5
	tr.End("manager", "sched", "decision")
	tr.EndAsync("w0@2", "server/2", "place", "w0")
	tr.Counter("cluster", "util", "servers_busy", Arg{Key: "busy", Val: 3})
	tr.Instant("workload/w0", "qos", "met")

	reg := tr.Registry()
	reg.Counter("decisions_total", "scheduler decisions").Add(2)
	reg.Gauge("queue_len", "queue length", func() float64 { return 1 })
}

func TestStreamSinkByteIdentity(t *testing.T) {
	buffered := New(nil)
	driveTrace(buffered)
	var want bytes.Buffer
	if err := WriteJSONL(&want, buffered); err != nil {
		t.Fatal(err)
	}

	var got bytes.Buffer
	streamed := NewWithSinks(nil, NewStreamSinkWriter(&got))
	driveTrace(streamed)
	if err := streamed.Close(); err != nil {
		t.Fatal(err)
	}

	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("streamed JSONL differs from buffered WriteJSONL:\n--- streamed ---\n%s--- buffered ---\n%s",
			got.String(), want.String())
	}
}

func TestStreamSinkFileFinalize(t *testing.T) {
	dir := t.TempDir()
	dst := filepath.Join(dir, "trace.jsonl")
	sink, err := NewStreamSink(dst)
	if err != nil {
		t.Fatal(err)
	}
	tr := NewWithSinks(nil, sink)
	driveTrace(tr)

	// Mid-run the bytes live in a temp file; the destination must not exist
	// until Close renames it into place, so a crashed run never leaves a
	// half-written trace under the advertised name.
	if _, err := os.Stat(dst); !os.IsNotExist(err) {
		t.Fatalf("destination %s exists before Close (err=%v)", dst, err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	got, err := os.ReadFile(dst)
	if err != nil {
		t.Fatal(err)
	}
	buffered := New(nil)
	driveTrace(buffered)
	var want bytes.Buffer
	if err := WriteJSONL(&want, buffered); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("finalized file differs from buffered WriteJSONL")
	}
	if sink.BytesWritten() != int64(len(got)) {
		t.Fatalf("BytesWritten = %d, file has %d bytes", sink.BytesWritten(), len(got))
	}
	// The temp file is gone after the rename.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Fatalf("temp file %s left behind after finalize", e.Name())
		}
	}
	// Close is idempotent.
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestStreamSinkFileMode: the finalized trace file gets the mode os.Create
// gives, like the journal and -trace-buffer files, not os.CreateTemp's
// owner-only 0600.
func TestStreamSinkFileMode(t *testing.T) {
	dir := t.TempDir()
	dst := filepath.Join(dir, "trace.jsonl")
	sink, err := NewStreamSink(dst)
	if err != nil {
		t.Fatal(err)
	}
	tr := NewWithSinks(nil, sink)
	driveTrace(tr)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	probe, err := os.Create(filepath.Join(dir, "probe"))
	if err != nil {
		t.Fatal(err)
	}
	defer probe.Close()
	want, err := probe.Stat()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.Stat(dst)
	if err != nil {
		t.Fatal(err)
	}
	if got.Mode().Perm() != want.Mode().Perm() {
		t.Fatalf("trace file mode %v, want os.Create's %v", got.Mode().Perm(), want.Mode().Perm())
	}
}

func TestStreamSinkDiscard(t *testing.T) {
	dir := t.TempDir()
	dst := filepath.Join(dir, "trace.jsonl")
	sink, err := NewStreamSink(dst)
	if err != nil {
		t.Fatal(err)
	}
	tr := NewWithSinks(nil, sink)
	driveTrace(tr)
	sink.Discard()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("Discard left %d files in %s", len(entries), dir)
	}
}

func TestStreamSinkEmptyTrace(t *testing.T) {
	// A trace with no events still finalizes to a valid file: header line
	// plus registry metric lines, so readers can tell "ran and recorded
	// nothing" from "never ran".
	var buf bytes.Buffer
	tr := NewWithSinks(nil, NewStreamSinkWriter(&buf))
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	h, err := ReadHeader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if h == nil || h.Trace != headerMagic || h.Version != 2 {
		t.Fatalf("empty trace header = %+v", h)
	}
	evs, err := ReadJSONL(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 0 {
		t.Fatalf("empty trace decoded %d events", len(evs))
	}
}

func TestStreamSinkBoundedMemory(t *testing.T) {
	var buf bytes.Buffer
	sink := NewStreamSinkWriter(&buf)
	tr := NewWithSinks(nil, sink)
	for i := 0; i < 5000; i++ {
		tr.Instant("manager", "runtime", "tick", Arg{Key: "i", Val: i})
	}
	cur, high := sink.RetainedBytes()
	if cur > streamBufBytes || high > streamBufBytes {
		t.Fatalf("stream sink retains cur=%d high=%d, want <= buffer size %d", cur, high, streamBufBytes)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("no bytes written")
	}
}

func TestRingSinkBound(t *testing.T) {
	const capacity = 8
	ring := NewRingSink(capacity)
	tr := NewWithSinks(nil, ring)
	var plateau int
	for i := 0; i < 100; i++ {
		tr.Instant("manager", "runtime", "tick", Arg{Key: "note", Val: "x"})
		if i == 2*capacity {
			plateau, _ = ring.RetainedBytes()
		}
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	evs := ring.Events()
	if len(evs) != capacity {
		t.Fatalf("ring holds %d events, want %d", len(evs), capacity)
	}
	// Oldest-first: the survivors are the last `capacity` emissions.
	for i, ev := range evs {
		want := uint64(100 - capacity + i + 1)
		if ev.Seq != want {
			t.Fatalf("ring event %d has seq %d, want %d", i, ev.Seq, want)
		}
	}
	// Identical-size events: retained bytes plateau once the ring is full
	// instead of growing with the emission count.
	cur, high := ring.RetainedBytes()
	if cur != plateau || high != plateau {
		t.Fatalf("ring retained cur=%d high=%d, want plateau %d", cur, high, plateau)
	}
}

// The tests below cover StreamSink's subscriber list: the subscribers a sink
// made by NewLiveStreamSink hands its encoded lines to, batch by batch.

// collectSubscriber drains a subscriber channel into one byte stream, returning the
// concatenation and the last cumulative drop count observed.
func collectSubscriber(header []byte, ch <-chan Batch) ([]byte, int64) {
	var out bytes.Buffer
	out.Write(header)
	var dropped int64
	for batch := range ch {
		out.Write(batch.Data)
		dropped = batch.Dropped
	}
	return out.Bytes(), dropped
}

// TestStreamSubscriberByteIdentity is the subscriber list's core contract: a subscriber attached
// before the first event receives — across the header line and every
// delivered batch — exactly the bytes a writer-backed StreamSink writes for
// the same trace, including the trailing registry metric lines flushed at
// Close. That holds for a live sink with a trace file (whose file is those
// bytes too, so the batches are the file after its header line) and for a
// subscriber-only one.
func TestStreamSubscriberByteIdentity(t *testing.T) {
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
		got, dropped := collectSubscriber(header, sink.ch)
		if dropped != 0 {
			t.Fatalf("%s: undersized? subscriber dropped %d events", name, dropped)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("%s: subscriber stream differs from StreamSink output:\n--- subscriber ---\n%s--- stream ---\n%s", name, got, want.String())
		}
	}
}

// TestStreamSubscriberDropsWhenStalled pins the backpressure contract: a full
// subscriber channel loses whole batches, never blocks Publish, and the loss
// is visible both on the sink-wide counter and on the next delivered batch.
func TestStreamSubscriberDropsWhenStalled(t *testing.T) {
	live, err := NewLiveStreamSink("")
	if err != nil {
		t.Fatal(err)
	}
	tr := NewWithSinks(nil, live)
	id, _, ch := live.Subscribe(1)

	emit := func(name string) {
		tr.Instant("manager", "sched", name)
		live.Publish()
	}
	emit("e1") // fills the depth-1 channel
	emit("e2") // dropped
	emit("e3") // dropped
	if got := live.DroppedTotal(); got != 2 {
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

	live.Unsubscribe(id)
	live.Unsubscribe(id) // idempotent
	if _, ok := <-ch; ok {
		t.Fatal("unsubscribed channel still open")
	}
	if got := live.Subscribers(); got != 0 {
		t.Fatalf("Subscribers = %d after unsubscribe, want 0", got)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestStreamSubscriberIdleFastPath pins the zero-subscriber cost model: until the
// first Publish every event is held (the prologue a subscriber attached
// before pacing starts must see); after it, events emitted with nobody
// attached are not retained, and a subscriber-only sink does not even encode
// them.
func TestStreamSubscriberIdleFastPath(t *testing.T) {
	live, err := NewLiveStreamSink("")
	if err != nil {
		t.Fatal(err)
	}
	tr := NewWithSinks(nil, live)
	tr.Instant("manager", "sched", "prologue")
	if cur, _ := live.RetainedBytes(); cur == 0 {
		t.Fatal("the prologue was not held before the first Publish")
	}
	live.Publish() // arms the fast path; prologue batch evaporates (no subs)
	tr.Instant("manager", "sched", "unheard")
	if cur, _ := live.RetainedBytes(); cur != 0 {
		t.Fatalf("idle sink retained %d bytes after the first Publish", cur)
	}
	// An event that cannot encode proves the idle sink never tried.
	unencodable := Event{Seq: 9, Name: "idle", Args: []Arg{{Key: "ch", Val: make(chan int)}}}
	if err := live.Emit(&unencodable, 0); err != nil {
		t.Fatalf("idle subscriber-only sink encoded an event: %v", err)
	}

	// A late subscriber still gets the header and everything from here on.
	_, header, ch := live.Subscribe(8)
	if !bytes.Contains(header, []byte(`"trace"`)) {
		t.Fatalf("late subscriber header = %q, want the trace header line", header)
	}
	tr.Instant("manager", "sched", "heard")
	live.Publish()
	batch := <-ch
	if !bytes.Contains(batch.Data, []byte(`"heard"`)) || bytes.Contains(batch.Data, []byte(`"unheard"`)) {
		t.Fatalf("late subscriber batch = %s, want only post-attach events", batch.Data)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestFileOnlySinkHasNoSubscriberList: the sinks quasar-sim, -replay and the
// exporters use are built without a subscriber list, so their Emit takes no lock.
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
