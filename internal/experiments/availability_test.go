package experiments

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"quasar/internal/obs"
)

// runAvailability executes the canned fault storm and returns the result
// plus (when traced) the JSONL rendering of the full event log.
func runAvailability(t testing.TB, trace bool) (*AvailabilityResult, []byte) {
	t.Helper()
	cfg := DefaultAvailabilityConfig()
	cfg.Trace = trace
	s, inj, tasks, err := availabilityScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.RT.Run(cfg.HorizonSecs)
	s.RT.Stop()
	res := availabilityResult(cfg, s, inj, tasks)
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

// TestAvailabilityAcceptance runs the canned storm on every seed of
// behaviourSeeds and checks the acceptance bar: on every seed, at least 90%
// of displaced LC workloads are re-admitted without re-profiling, recovery
// delays are reported, and services mostly meet QoS; over the set, the
// storm displaces real work including latency-critical services and
// recovery takes measurable time. How much one seed's storm displaces
// depends on where its crashes land (seed 2 displaces one workload, and
// the recovery half-life is 0 on seeds 2, 3, 4 and 6), so the
// scenario-validity bars are floors on pooled counts and the delay bars
// are on the means over the set.
func TestAvailabilityAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full fault-storm scenario per seed")
	}
	results := overSeeds(t, func(t *testing.T, seed int64) *AvailabilityResult {
		cfg := DefaultAvailabilityConfig()
		cfg.Seed = seed
		res, err := Availability(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Faults.Crashes == 0 || res.Faults.Slowdowns == 0 || res.Faults.Partitions == 0 {
			t.Fatalf("storm did not exercise every fault kind: %+v", res.Faults)
		}
		if res.Recovery.DisplacedLC > 0 && res.LCNoReprofileFrac < 0.9 {
			t.Errorf("LC re-admission without re-profiling = %.2f, want >= 0.9 (recovery %+v)",
				res.LCNoReprofileFrac, res.Recovery)
		}
		if res.Recovery.Readmitted < res.Recovery.Displaced/2 {
			t.Errorf("only %d of %d displaced workloads re-admitted", res.Recovery.Readmitted, res.Recovery.Displaced)
		}
		for name, v := range map[string]float64{"MTTR": res.MTTRSecs, "half-life": res.HalfLifeSecs} {
			if math.IsInf(v, 0) || !(v >= 0) { //lint:allow(floatcmp) ordering assertion, NaN must fail
				t.Errorf("recovery %s %v is not a finite delay", name, v)
			}
		}
		if res.QoSMetFrac <= 0.5 {
			t.Errorf("QoS met only %.1f%% of service ticks under the storm", 100*res.QoSMetFrac)
		}
		t.Logf("displaced %d (LC %d), readmitted %d, LC no-reprofile %.2f, MTTR %.1fs, half-life %.1fs, QoS met %.3f, live %d/%d",
			res.Recovery.Displaced, res.Recovery.DisplacedLC, res.Recovery.Readmitted, res.LCNoReprofileFrac,
			res.MTTRSecs, res.HalfLifeSecs, res.QoSMetFrac, res.LiveServers, res.TotalServs)
		return res
	})
	if t.Failed() {
		return
	}
	n := len(behaviourSeeds)
	var displaced, displacedLC, dead int
	mttr, halfLife := 0.0, 0.0
	for _, res := range results {
		displaced += res.Recovery.Displaced
		displacedLC += res.Recovery.DisplacedLC
		dead += res.TotalServs - res.LiveServers
		mttr += res.MTTRSecs / float64(n)
		halfLife += res.HalfLifeSecs / float64(n)
	}
	if displaced < 2*n {
		t.Fatalf("storm displaced only %d workloads over %d seeds (floor %d); the scenario is too gentle to test recovery",
			displaced, n, 2*n)
	}
	if displacedLC < n {
		t.Fatalf("storm displaced only %d latency-critical workloads over %d seeds (floor %d)", displacedLC, n, n)
	}
	if mttr <= 0 || halfLife <= 0 {
		t.Errorf("recovery delays not recorded: mean MTTR %.1fs, mean half-life %.1fs over %d seeds", mttr, halfLife, n)
	}
	if dead < n/2 {
		t.Errorf("only %d servers left dead at horizon over %d seeds (floor %d); permanent crash missing?", dead, n, n/2)
	}
	t.Logf("pooled: displaced %d (LC %d), mean MTTR %.1fs, mean half-life %.1fs, %d servers dead at horizon",
		displaced, displacedLC, mttr, halfLife, dead)
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
