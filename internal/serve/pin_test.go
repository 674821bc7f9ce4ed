package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"quasar/internal/chaos"
	"quasar/internal/obs"
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

// TestReplayDeterministicPinnedDigests pins serve worlds across commits:
// the SHA-256 of a replayed trace and of the final manager state are
// committed literals, so a change to how a world is assembled — the order
// its RNG streams are derived in, its cluster, library, SLO engine, detector
// or fault injector — fails here even when live run and replay still agree
// with each other. The two worlds cover every assembly branch: a sized
// cluster with SLO, faults, the detector and half-second epochs, and the
// default 40-server testbed with the detector alone.
func TestReplayDeterministicPinnedDigests(t *testing.T) {
	for _, tc := range []struct {
		name       string
		cfg        Config
		endAt      float64
		trace, mgr string
	}{
		{"slo-faults", Config{Servers: 24, Seed: 13, SLO: true, EpochSecs: 0.5, Detector: true, Faults: pinPlan()}, 240,
			"20be1a698b79a6c67243e624030f94e96920f9e5b501bbd2a41f3a444739ed78",
			"de225db4c439f53386571e9509e844225f3be4eda5c4b58355f5e98e1f98909e"},
		{"detector", Config{Seed: 5, Detector: true}, 120,
			"aa2c1c8a65df4f7bad70bf82727f1af8ddda25e15c5484b6f0ddae43aacaa355",
			"9f8f857a52a3b46aa492f30e2fdf0b2f8f2f4672c896a1f2ce18fc7327d9ce6a"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			journal := filepath.Join(dir, "run.journal")
			if _, err := BuildJournal(journal, tc.cfg, tc.endAt, scriptFixture()); err != nil {
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
			if res.Applied != 5 || res.Truncated {
				t.Fatalf("applied %d (truncated=%v), want 5 complete", res.Applied, res.Truncated)
			}
			trace, err := os.ReadFile(tracePath)
			if err != nil {
				t.Fatal(err)
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
