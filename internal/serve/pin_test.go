package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"quasar/internal/chaos"
	"quasar/internal/obs"
	"quasar/internal/workload"
)

// pinPlan is a fault plan that fires inside a short replay: a slowdown, a
// crash that restarts, and a partition long enough for the detector to
// declare its server dead. Crash and partition pick their targets at random,
// so the chaos stream's derivation is part of the pinned bytes.
func pinPlan() *chaos.Plan {
	return &chaos.Plan{Name: "pin", Faults: []chaos.FaultSpec{
		{Kind: chaos.KindSlowdown, Server: chaos.AnyServer, At: 10, DurationSecs: 50, Severity: 0.6},
		{Kind: chaos.KindCrash, Server: chaos.AnyServer, At: 20, DurationSecs: 60},
		{Kind: chaos.KindPartition, Server: chaos.AnyServer, At: 70, DurationSecs: 60},
	}}
}

// churnDataset keeps a single-node job to tens of sim-seconds, so most of
// churnScript's submissions finish inside the replay.
var churnDataset = &workload.Dataset{Name: "churn", SizeGB: 5, WorkMult: 0.05, MemMult: 0.8}

// churnScript is a journal of n entries, one a second, that turns the task
// population over many times. Each run of 25 entries holds one Hadoop job on
// an oracle-best deadline (some run late past the SLO warm-up, fire a page
// and complete with the alert open), four single-node jobs on a target,
// four evictions of the oldest best-effort submission not yet named, and
// best-effort single-node filler. IDs follow the default library's seven
// ordinals, so the first submission is 0008.
func churnScript(n int) []ScriptEntry {
	var script []ScriptEntry
	var evictable []int
	ordinal := 7
	for i := 0; i < n; i++ {
		at := float64(i + 1)
		switch k := i % 25; {
		case k == 4:
			ordinal++
			script = append(script, ScriptEntry{At: at, Submit: &SubmitRequest{Type: "hadoop", Family: -1, MaxNodes: 1, TargetSlack: 1}})
		case k%5 == 4 && len(evictable) > 0:
			script = append(script, ScriptEntry{At: at, Evict: fmt.Sprintf("single-node-%04d", evictable[0])})
			evictable = evictable[1:]
		case k%5 == 2:
			ordinal++
			script = append(script, ScriptEntry{At: at, Submit: &SubmitRequest{Type: "single-node", Family: -1, TargetSlack: 1.5, Dataset: churnDataset}})
		default:
			ordinal++
			evictable = append(evictable, ordinal)
			script = append(script, ScriptEntry{At: at, Submit: &SubmitRequest{Type: "single-node", Family: -1, BestEffort: true, Dataset: churnDataset}})
		}
	}
	return script
}

// TestReplayDeterministicPinnedDigests pins serve worlds across commits:
// the SHA-256 of a replayed trace and of the final manager state are
// committed literals, so a change to how a world is assembled — the order
// its RNG streams are derived in, its cluster, library, SLO engine, detector
// or fault injector — fails here even when live run and replay still agree
// with each other. The first two worlds cover every assembly branch: a sized
// cluster with SLO, faults, the detector and half-second epochs, and the
// default 40-server testbed with the detector alone. The churn world replays
// a long journal in which hundreds of tasks complete and best-effort work is
// evicted while SLO alerts fire and resolve, so the per-tick sweeps run over
// a task history far longer than the live set; its floors keep it churning.
func TestReplayDeterministicPinnedDigests(t *testing.T) {
	for _, tc := range []struct {
		name       string
		cfg        Config
		endAt      float64
		script     []ScriptEntry
		trace, mgr string
		// floors is the least number of trace lines holding each substring.
		floors map[string]int
	}{
		{"slo-faults", Config{Servers: 24, Seed: 13, SLO: true, EpochSecs: 0.5, Detector: true, Faults: pinPlan()}, 240, scriptFixture(),
			"20be1a698b79a6c67243e624030f94e96920f9e5b501bbd2a41f3a444739ed78",
			"de225db4c439f53386571e9509e844225f3be4eda5c4b58355f5e98e1f98909e", nil},
		{"detector", Config{Seed: 5, Detector: true}, 120, scriptFixture(),
			"aa2c1c8a65df4f7bad70bf82727f1af8ddda25e15c5484b6f0ddae43aacaa355",
			"9f8f857a52a3b46aa492f30e2fdf0b2f8f2f4672c896a1f2ce18fc7327d9ce6a", nil},
		{"churn", Config{Servers: 40, Seed: 3, SLO: true}, 2700, churnScript(1500),
			"5f03ac754966b354df72ab6a76d272f02d64e5d2b3182ddc9f26474c654eeedb",
			"5f1221cac09ce79a4b3b02e2104b7f9ec6cd3f0581d671fb1805df7a08ed462e",
			map[string]int{`"name":"complete"`: 300, `"name":"evict"`: 100, `"reason":"completed"`: 5}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			journal := filepath.Join(dir, "run.journal")
			if _, err := BuildJournal(journal, tc.cfg, tc.endAt, tc.script); err != nil {
				t.Fatal(err)
			}
			tracePath := filepath.Join(dir, "trace.jsonl")
			sink, err := obs.NewStreamSink(tracePath)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Replay(journal, ReplayOptions{Sinks: []obs.Sink{sink}})
			if err != nil {
				t.Fatal(err)
			}
			if res.Applied != len(tc.script) || res.Truncated {
				t.Fatalf("applied %d (truncated=%v), want %d complete", res.Applied, res.Truncated, len(tc.script))
			}
			trace, err := os.ReadFile(tracePath)
			if err != nil {
				t.Fatal(err)
			}
			for sub, floor := range tc.floors {
				if n := bytes.Count(trace, []byte(sub)); n < floor {
					t.Errorf("%d trace lines hold %s, want at least %d", n, sub, floor)
				}
			}
			digest := func(b []byte) string { s := sha256.Sum256(b); return hex.EncodeToString(s[:]) }
			if got := digest(trace); got != tc.trace {
				t.Errorf("trace (%d bytes) sha256 = %s, want %s", len(trace), got, tc.trace)
			}
			if got := digest(res.ManagerState); got != tc.mgr {
				t.Errorf("manager state (%d bytes) sha256 = %s, want %s", len(res.ManagerState), got, tc.mgr)
			}
		})
	}
}
