package serve

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"quasar/internal/obs"
)

// TestWarmFailoverResumesByteIdentically is the failover determinism
// contract: a standby that restores the mid-run snapshot and continues from
// the journal tail must land in exactly the same state as any other standby
// doing the same — traces and final manager bytes identical. (The failover
// continuation is not compared against the uninterrupted run: the restored
// manager derives its RNG streams at the failover point, which is the
// documented determinism boundary.)
func TestWarmFailoverResumesByteIdentically(t *testing.T) {
	dir := t.TempDir()
	journal := filepath.Join(dir, "run.journal")
	snapshot := filepath.Join(dir, "run.snapshot.json")
	cfg := Config{Servers: 24, Seed: 21}
	script := []ScriptEntry{
		{At: 1, Submit: &SubmitRequest{Type: "memcached", Family: -1, QPS: 7000, LatencyUS: 600, MaxNodes: 3}},
		{At: 4, Submit: &SubmitRequest{Type: "single-node", Family: -1, BestEffort: true}},
		{At: 8, Submit: &SubmitRequest{Type: "spark", Family: 0, MaxNodes: 3, TargetSlack: 1.4}},
		// Admissions continuing past the t=50 snapshot: the standby applies
		// these from the journal tail after restoring.
		{At: 60, Submit: &SubmitRequest{Type: "single-node", Family: -1, BestEffort: true}},
		{At: 70, Evict: "single-node-0009"},
	}
	if _, err := BuildJournal(journal, cfg, 90, script); err != nil {
		t.Fatal(err)
	}

	// Pass 1: plain replay writing the mid-run snapshot at t=50 (end is 90,
	// so the cadence fires exactly once — genuinely mid-run).
	if _, err := Replay(journal, ReplayOptions{SnapshotPath: snapshot, SnapshotEverySecs: 50}); err != nil {
		t.Fatal(err)
	}
	snap, err := LoadSnapshot(snapshot)
	if err != nil {
		t.Fatal(err)
	}
	if snap.SimTime != 50 { //lint:allow(floatcmp) cadence pins an exact boundary
		t.Fatalf("snapshot at t=%g, want the mid-run t=50", snap.SimTime)
	}

	takeOver := func(name string) ([]byte, *ReplayResult) {
		tracePath := filepath.Join(dir, name+".jsonl")
		sink, err := obs.NewStreamSink(tracePath)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Replay(journal, ReplayOptions{
			Sinks: []obs.Sink{sink}, Snapshot: snap, Failover: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		trace, err := os.ReadFile(tracePath)
		if err != nil {
			t.Fatal(err)
		}
		return trace, res
	}
	traceA, resA := takeOver("standby-a")
	traceB, resB := takeOver("standby-b")

	if !resA.SnapshotVerified || resA.FailoverAt != 50 { //lint:allow(floatcmp) exact boundary
		t.Fatalf("failover did not happen at the snapshot boundary: verified=%v at t=%g", resA.SnapshotVerified, resA.FailoverAt)
	}
	if resA.Applied != len(script) {
		t.Fatalf("standby applied %d entries, want all %d (tail included)", resA.Applied, len(script))
	}
	if !bytes.Equal(traceA, traceB) {
		t.Fatalf("two identical failover take-overs diverged (%d vs %d trace bytes)", len(traceA), len(traceB))
	}
	if !bytes.Equal(resA.ManagerState, resB.ManagerState) {
		t.Fatal("two identical failover take-overs ended with different manager state")
	}
}

// TestSnapshotVerifyCatchesDivergence: a snapshot from a different run must
// fail verification, not silently pass.
func TestSnapshotVerifyCatchesDivergence(t *testing.T) {
	dir := t.TempDir()
	journalA := filepath.Join(dir, "a.journal")
	journalB := filepath.Join(dir, "b.journal")
	snapA := filepath.Join(dir, "a.snapshot.json")
	script := []ScriptEntry{
		{At: 1, Submit: &SubmitRequest{Type: "single-node", Family: -1, BestEffort: true}},
		{At: 2, Submit: &SubmitRequest{Type: "webserver", Family: -1, QPS: 5000, LatencyUS: 800, MaxNodes: 2}},
	}
	if _, err := BuildJournal(journalA, Config{Servers: 16, Seed: 31}, 40, script); err != nil {
		t.Fatal(err)
	}
	// Same script, different seed: different world, different manager bytes.
	if _, err := BuildJournal(journalB, Config{Servers: 16, Seed: 32}, 40, script); err != nil {
		t.Fatal(err)
	}
	if _, err := Replay(journalA, ReplayOptions{SnapshotPath: snapA, SnapshotEverySecs: 20}); err != nil {
		t.Fatal(err)
	}
	snap, err := LoadSnapshot(snapA)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Replay(journalB, ReplayOptions{Snapshot: snap}); err == nil {
		t.Fatal("replay of journal B verified journal A's snapshot")
	}
}

// TestCorruptSnapshotFailsTheRestore: a snapshot file that decodes but whose
// classification state is corrupt — no engine section, a missing axis, a
// column outside the grid, ragged matrices, a row index past the last row —
// is reported as an error by snapshot verification, by the failover replay
// and by the restore itself (the standby's take-over move, which used to
// panic on it); nothing crashes.
func TestCorruptSnapshotFailsTheRestore(t *testing.T) {
	dir := t.TempDir()
	journal := filepath.Join(dir, "run.journal")
	snapPath := filepath.Join(dir, "run.snapshot.json")
	cfg := Config{Servers: 16, Seed: 31}
	script := []ScriptEntry{
		{At: 1, Submit: &SubmitRequest{Type: "single-node", Family: -1, BestEffort: true}},
		{At: 2, Submit: &SubmitRequest{Type: "webserver", Family: -1, QPS: 5000, LatencyUS: 800, MaxNodes: 2}},
	}
	if _, err := BuildJournal(journal, cfg, 40, script); err != nil {
		t.Fatal(err)
	}
	if _, err := Replay(journal, ReplayOptions{SnapshotPath: snapPath, SnapshotEverySecs: 20}); err != nil {
		t.Fatal(err)
	}
	good, err := LoadSnapshot(snapPath)
	if err != nil {
		t.Fatal(err)
	}

	type object = map[string]any
	axes := func(mgr object) []any { return mgr["engine"].(object)["axes"].([]any) }
	for name, corrupt := range map[string]func(mgr object){
		"no engine section":   func(mgr object) { mgr["engine"] = nil },
		"missing axis":        func(mgr object) { mgr["engine"].(object)["axes"] = axes(mgr)[:4] },
		"column off the grid": func(mgr object) { axes(mgr)[2].([]any)[0].(object)["99"] = 1.0 },
		"ragged matrices":     func(mgr object) { mgr["engine"].(object)["axes"].([]any)[4] = axes(mgr)[4].([]any)[:3] },
		"row past the end":    func(mgr object) { mgr["engine"].(object)["row_of"].(object)["ghost-0001"] = 1 << 20 },
	} {
		var mgr object
		if err := json.Unmarshal(good.Manager, &mgr); err != nil {
			t.Fatal(err)
		}
		corrupt(mgr)
		bad := *good
		if bad.Manager, err = json.Marshal(mgr); err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(&bad)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, "corrupt.snapshot.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		// The file-level checks cannot see inside the manager state.
		snap, err := LoadSnapshot(path)
		if err != nil {
			t.Fatalf("%s: LoadSnapshot: %v", name, err)
		}
		if _, err := Replay(journal, ReplayOptions{Snapshot: snap}); err == nil {
			t.Errorf("%s: -verify-snapshot passed a corrupt snapshot", name)
		}
		if _, err := Replay(journal, ReplayOptions{Snapshot: snap, Failover: true}); err == nil {
			t.Errorf("%s: failover replay took over from a corrupt snapshot", name)
		}
		w, err := buildWorld(cfg)
		if err != nil {
			t.Fatal(err)
		}
		before := w.q
		if err := failover(w, snap); err == nil || !strings.Contains(err.Error(), "restoring manager snapshot") {
			t.Errorf("%s: restore returned %v, want a restore error", name, err)
		}
		if w.q != before {
			t.Errorf("%s: a failed restore installed its manager", name)
		}
		_ = w.tracer.Close()
	}
}
