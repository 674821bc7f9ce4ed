package core_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"quasar/internal/chaos"
	"quasar/internal/core"
	"quasar/internal/obs"
	"quasar/internal/serve"
)

// TestServeSnapshotMidDisplacement extends the core failover-under-faults
// contract to the serve journal path: a journaled run with a chaos crash
// snapshots while the displacement episode is still open AND new submissions
// keep arriving through the journal after the snapshot boundary. The
// snapshot must carry the open episode, and two standbys restoring it and
// applying the journal tail must land byte-identically.
func TestServeSnapshotMidDisplacement(t *testing.T) {
	dir := t.TempDir()
	journal := filepath.Join(dir, "run.journal")
	snapshot := filepath.Join(dir, "run.snapshot.json")
	// Every server crashes at t=250, so the crash displaces the targeted
	// work running then wherever the draw placed it (the services are
	// long-running, so there is some). The detector (period 10, dead after 4
	// missed beats) fences the servers by ~t=290, and nothing can be
	// readmitted before they restart at t=350, so the t=300 snapshot lands
	// inside the open recovery episode and the standby closes it.
	const servers = 8
	var crashes []chaos.FaultSpec
	for id := 0; id < servers; id++ {
		crashes = append(crashes, chaos.FaultSpec{Kind: chaos.KindCrash, Server: id, At: 250, DurationSecs: 100})
	}
	cfg := serve.Config{Servers: servers, Seed: 1, Faults: &chaos.Plan{Name: "serve-crash", Faults: crashes}}
	script := []serve.ScriptEntry{
		{At: 1, Submit: &serve.SubmitRequest{Type: "memcached", Family: -1, QPS: 7000, LatencyUS: 600, MaxNodes: 4}},
		{At: 3, Submit: &serve.SubmitRequest{Type: "webserver", Family: -1, QPS: 8000, LatencyUS: 900, MaxNodes: 4}},
		{At: 6, Submit: &serve.SubmitRequest{Type: "hadoop", Family: 1, MaxNodes: 4, TargetSlack: 1.4}},
		{At: 10, Submit: &serve.SubmitRequest{Type: "single-node", Family: -1, BestEffort: true}},
		{At: 12, Submit: &serve.SubmitRequest{Type: "single-node", Family: -1, BestEffort: true}},
		// The journal keeps admitting after the crash (t=250) and after the
		// snapshot boundary (t=300): the standby applies these from the tail.
		{At: 320, Submit: &serve.SubmitRequest{Type: "single-node", Family: -1, BestEffort: true}},
		{At: 400, Submit: &serve.SubmitRequest{Type: "spark", Family: 0, MaxNodes: 3, TargetSlack: 1.5}},
	}
	if _, err := serve.BuildJournal(journal, cfg, 500, script); err != nil {
		t.Fatal(err)
	}

	if _, err := serve.Replay(journal, serve.ReplayOptions{SnapshotPath: snapshot, SnapshotEverySecs: 300}); err != nil {
		t.Fatal(err)
	}
	snap, err := serve.LoadSnapshot(snapshot)
	if err != nil {
		t.Fatal(err)
	}
	if snap.SimTime != 300 { //lint:allow(floatcmp) cadence pins an exact boundary
		t.Fatalf("snapshot at t=%g, want mid-run t=300", snap.SimTime)
	}

	// The manager snapshot must carry the open displacement episode: tasks
	// flagged displaced and non-zero recovery counters.
	var mgr core.QuasarSnapshot
	if err := json.Unmarshal(snap.Manager, &mgr); err != nil {
		t.Fatal(err)
	}
	if mgr.Recovery.Displaced == 0 {
		t.Fatalf("no displacement recorded by snapshot time: %+v", mgr.Recovery)
	}
	openEpisode := false
	for _, ts := range mgr.Tasks {
		if ts.Displaced {
			openEpisode = true
		}
	}
	if !openEpisode {
		t.Fatal("snapshot carries no open displacement episode (all tasks already readmitted); move the snapshot boundary")
	}

	// Two standbys performing the identical take-over must agree byte for
	// byte — trace and final manager state.
	takeOver := func(name string) ([]byte, *serve.ReplayResult) {
		tracePath := filepath.Join(dir, name+".jsonl")
		sink, err := obs.NewStreamSink(tracePath)
		if err != nil {
			t.Fatal(err)
		}
		res, err := serve.Replay(journal, serve.ReplayOptions{
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
	if !resA.SnapshotVerified || resA.FailoverAt != 300 { //lint:allow(floatcmp) exact boundary
		t.Fatalf("failover did not happen at the snapshot boundary: verified=%v at t=%g", resA.SnapshotVerified, resA.FailoverAt)
	}
	if resA.Applied != len(script) {
		t.Fatalf("standby applied %d entries, want all %d (post-snapshot tail included)", resA.Applied, len(script))
	}
	if !bytes.Equal(traceA, traceB) {
		t.Fatalf("two identical mid-episode take-overs diverged (%d vs %d trace bytes)", len(traceA), len(traceB))
	}
	if !bytes.Equal(resA.ManagerState, resB.ManagerState) {
		t.Fatal("two identical mid-episode take-overs ended with different manager state")
	}
}
