package serve

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"quasar/internal/obs"
	"quasar/internal/par"
)

// scriptFixture is the standard replay-test script: a service, a best-effort
// filler, a batch job, then a mid-run retarget and an eviction.
func scriptFixture() []ScriptEntry {
	return []ScriptEntry{
		{At: 1, Submit: &SubmitRequest{Type: "webserver", Family: -1, QPS: 9000, LatencyUS: 900, MaxNodes: 3}},
		{At: 2.3, Submit: &SubmitRequest{Type: "single-node", Family: -1, BestEffort: true}},
		{At: 5, Submit: &SubmitRequest{Type: "hadoop", Family: 1, MaxNodes: 3, TargetSlack: 1.3}},
		{At: 30, Workload: "webserver-0008", Target: &TargetUpdate{QPS: 11000}},
		{At: 45, Evict: "single-node-0009"},
	}
}

// TestBuildJournalPredictsIDs pins the deterministic ID contract: with the
// default library (7 types x 1 seed = ordinals 1..7), submissions start at
// 0008 in admission order.
func TestBuildJournalPredictsIDs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.journal")
	ids, err := BuildJournal(path, Config{Servers: 24, Seed: 13}, 60, scriptFixture())
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"webserver-0008", "single-node-0009", "hadoop-0010"}
	if len(ids) != len(want) {
		t.Fatalf("got %d promised IDs, want %d", len(ids), len(want))
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Errorf("promised ID %d = %q, want %q", i, ids[i], want[i])
		}
	}
}

// TestReplayDeterministicAcrossWorkers replays the same journal at several
// worker counts: traces and final manager state must be byte-identical.
func TestReplayDeterministicAcrossWorkers(t *testing.T) {
	dir := t.TempDir()
	journal := filepath.Join(dir, "run.journal")
	if _, err := BuildJournal(journal, Config{Servers: 24, Seed: 13, SLO: true}, 300, scriptFixture()); err != nil {
		t.Fatal(err)
	}
	run := func(workers int) ([]byte, []byte) {
		par.SetDefaultWorkers(workers)
		defer par.SetDefaultWorkers(0)
		tracePath := filepath.Join(dir, fmt.Sprintf("w%d.jsonl", workers))
		sink, err := obs.NewStreamSink(tracePath)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Replay(journal, ReplayOptions{Sinks: []obs.Sink{sink}})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if res.Applied != 5 || res.Truncated {
			t.Fatalf("workers=%d: applied %d (truncated=%v), want 5 complete", workers, res.Applied, res.Truncated)
		}
		trace, err := os.ReadFile(tracePath)
		if err != nil {
			t.Fatal(err)
		}
		return trace, res.ManagerState
	}
	wantTrace, wantState := run(1)
	for _, workers := range []int{4, runtime.NumCPU()} {
		trace, state := run(workers)
		if !bytes.Equal(wantTrace, trace) {
			t.Errorf("workers=%d: trace diverged (%d vs %d bytes)", workers, len(wantTrace), len(trace))
		}
		if !bytes.Equal(wantState, state) {
			t.Errorf("workers=%d: manager state diverged", workers)
		}
	}
}

// TestReplayApplyErrorsAreDeterministicNoOps: target updates and evictions
// naming unknown workloads journal fine and apply as traced no-ops — the
// daemon must not die because a client raced an eviction, and the no-op must
// itself be part of the deterministic record.
func TestReplayApplyErrorsAreDeterministicNoOps(t *testing.T) {
	dir := t.TempDir()
	journal := filepath.Join(dir, "run.journal")
	script := []ScriptEntry{
		{At: 1, Submit: &SubmitRequest{Type: "single-node", Family: -1, BestEffort: true}},
		{At: 3, Workload: "nope-0001", Target: &TargetUpdate{QPS: 100}},
		{At: 4, Evict: "nope-0002"},
	}
	if _, err := BuildJournal(journal, Config{Servers: 8, Seed: 3}, 30, script); err != nil {
		t.Fatal(err)
	}
	tracePath := filepath.Join(dir, "out.jsonl")
	sink, err := obs.NewStreamSink(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Replay(journal, ReplayOptions{Sinks: []obs.Sink{sink}})
	if err != nil {
		t.Fatalf("replay with unknown-workload entries should not fail: %v", err)
	}
	if res.Applied != 3 {
		t.Fatalf("applied %d entries, want 3", res.Applied)
	}
	f, err := os.Open(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	events, err := obs.ReadJSONL(f)
	_ = f.Close()
	if err != nil {
		t.Fatal(err)
	}
	var applied, failed int
	for _, e := range events {
		switch e.Name {
		case "serve.apply":
			applied++
		case "serve.apply-error":
			failed++
		}
	}
	if applied != 1 || failed != 2 {
		t.Fatalf("trace has %d serve.apply + %d serve.apply-error events, want 1 + 2", applied, failed)
	}
}

// TestReplayTruncatedJournal simulates a hard-killed primary: the journal
// ends without an end marker, and the standby applies everything on disk.
func TestReplayTruncatedJournal(t *testing.T) {
	dir := t.TempDir()
	journal := filepath.Join(dir, "run.journal")
	if _, err := BuildJournal(journal, Config{Servers: 24, Seed: 13}, 60, scriptFixture()); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	// Drop the end-marker line (the last one).
	trimmed := bytes.TrimRight(data, "\n")
	cut := bytes.LastIndexByte(trimmed, '\n')
	if cut < 0 {
		t.Fatal("journal too short to truncate")
	}
	truncated := filepath.Join(dir, "killed.journal")
	if err := os.WriteFile(truncated, data[:cut+1], 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := Replay(truncated, ReplayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Truncated {
		t.Fatal("replay did not flag the missing end marker")
	}
	if res.Applied != 5 {
		t.Fatalf("applied %d entries from the truncated journal, want all 5", res.Applied)
	}
}

// TestOpenJournalHeader round-trips the world configuration through the
// journal header.
func TestOpenJournalHeader(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.journal")
	cfg := Config{Servers: 48, Seed: 99, EpochSecs: 0.5, SLO: true}
	if _, err := BuildJournal(path, cfg, 10, nil); err != nil {
		t.Fatal(err)
	}
	r, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = r.Close() }()
	got := r.Config()
	if got.Servers != 48 || got.Seed != 99 || got.EpochSecs != 0.5 || !got.SLO { //lint:allow(floatcmp) exact round-trip
		t.Fatalf("header config did not round-trip: %+v", got)
	}
	if got.TickSecs != 5 || got.SeedLib != 1 {
		t.Fatalf("header config lost defaults: %+v", got)
	}
}

// TestReplaySinksShareOneEncoding replays one journal on a 200-server world —
// every schedule decision carries a full 200-candidate ranking — into a
// streaming file sink, a buffer sink and a tee subscriber at once. The three
// reach the bytes by different routes (line scratch + bufio, a retained event
// re-encoded by WriteEventsJSONL, the tee's pending batch); all go through the
// one event-line encoder, so the file must begin with the buffered export and
// the subscriber must receive the file.
func TestReplaySinksShareOneEncoding(t *testing.T) {
	dir := t.TempDir()
	journal := filepath.Join(dir, "run.journal")
	if _, err := BuildJournal(journal, Config{Servers: 200, Seed: 13, SLO: true}, 120, scriptFixture()); err != nil {
		t.Fatal(err)
	}
	tracePath := filepath.Join(dir, "out.jsonl")
	stream, err := obs.NewStreamSink(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	buffer, tee := obs.NewBufferSink(), obs.NewTeeSink()
	_, _, ch := tee.Subscribe(1)
	if _, err := Replay(journal, ReplayOptions{Sinks: []obs.Sink{stream, buffer, tee}}); err != nil {
		t.Fatal(err)
	}
	file, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}

	var buffered bytes.Buffer
	header, err := obs.ReadHeader(bytes.NewReader(file))
	if err != nil || header == nil {
		t.Fatalf("trace header: %v (%v)", header, err)
	}
	if err := obs.WriteEventsJSONL(&buffered, header, buffer.Events()); err != nil {
		t.Fatal(err)
	}
	if buffered.Len() < 100_000 || !bytes.HasPrefix(file, buffered.Bytes()) {
		t.Errorf("streamed file (%d bytes) does not begin with the buffered export (%d bytes)", len(file), buffered.Len())
	}

	// Nothing published mid-replay, so the tee hands over one batch at Close:
	// every event line plus the metric tail — the file minus its header line.
	batch := <-ch
	headerLine := file[:bytes.IndexByte(file, '\n')+1]
	if !bytes.Equal(batch.Data, file[len(headerLine):]) {
		t.Errorf("tee subscriber received %d bytes, file holds %d after the header", len(batch.Data), len(file)-len(headerLine))
	}
}
