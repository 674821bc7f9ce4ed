package experiments

import (
	"bytes"
	"encoding/json"
	"testing"

	"quasar/internal/obs"
)

// runAvailability executes the canned fault storm and returns the result
// plus (when traced) the JSONL rendering of the full event log.
func runAvailability(t testing.TB, trace bool) (*AvailabilityResult, []byte) {
	t.Helper()
	cfg := DefaultAvailabilityConfig()
	cfg.Trace = trace
	s, inj, err := availabilityScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.RT.Run(cfg.HorizonSecs)
	s.RT.Stop()
	res := availabilityResult(cfg, s, inj)
	var jsonl []byte
	if trace {
		var buf bytes.Buffer
		if err := obs.WriteJSONL(&buf, s.Tracer); err != nil {
			t.Fatal(err)
		}
		jsonl = buf.Bytes()
	}
	return res, jsonl
}

// TestAvailabilityAcceptance runs the canned storm and checks the PR's
// acceptance bar: the storm displaces real work including latency-critical
// services, at least 90% of displaced LC workloads are re-admitted without
// re-profiling, and recovery metrics are reported.
func TestAvailabilityAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full fault-storm scenario")
	}
	res, _ := runAvailability(t, false)
	if res.Faults.Crashes == 0 || res.Faults.Slowdowns == 0 || res.Faults.Partitions == 0 {
		t.Fatalf("storm did not exercise every fault kind: %+v", res.Faults)
	}
	if res.Recovery.Displaced < 2 {
		t.Fatalf("storm displaced only %d workloads; the scenario is too gentle to test recovery",
			res.Recovery.Displaced)
	}
	if res.Recovery.DisplacedLC < 1 {
		t.Fatalf("storm displaced no latency-critical workload: %+v", res.Recovery)
	}
	if res.LCNoReprofileFrac < 0.9 {
		t.Errorf("LC re-admission without re-profiling = %.2f, want >= 0.9 (recovery %+v)",
			res.LCNoReprofileFrac, res.Recovery)
	}
	if res.Recovery.Readmitted < res.Recovery.Displaced/2 {
		t.Errorf("only %d of %d displaced workloads re-admitted", res.Recovery.Readmitted, res.Recovery.Displaced)
	}
	if res.MTTRSecs <= 0 || res.HalfLifeSecs <= 0 {
		t.Errorf("recovery delays not recorded: MTTR=%.1f half-life=%.1f", res.MTTRSecs, res.HalfLifeSecs)
	}
	if res.QoSMetFrac <= 0.5 {
		t.Errorf("QoS met only %.1f%% of service ticks under the storm", 100*res.QoSMetFrac)
	}
	if res.LiveServers >= res.TotalServs {
		t.Errorf("no server left dead at horizon (live %d/%d); permanent crash missing?",
			res.LiveServers, res.TotalServs)
	}
}

// TestAvailabilityDeterministic reruns the traced storm: the aggregated
// result and the full JSONL trace must be byte-identical.
func TestAvailabilityDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the traced fault-storm scenario twice")
	}
	run := func() ([]byte, []byte) {
		res, jsonl := runAvailability(t, true)
		blob, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return blob, jsonl
	}
	wantRes, wantTrace := run()
	gotRes, gotTrace := run()
	if !bytes.Equal(wantRes, gotRes) {
		t.Fatalf("availability result diverged on rerun:\n  %s\n  %s", wantRes, gotRes)
	}
	if !bytes.Equal(wantTrace, gotTrace) {
		t.Fatal("fault-storm JSONL trace diverged on rerun")
	}
}
