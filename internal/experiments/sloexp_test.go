package experiments

import (
	"encoding/json"
	"testing"
)

// TestSLODetectAccuracy runs the canned crash storm on every seed of
// behaviourSeeds and holds the alerting-quality bar over the pooled
// outages: pages attribute to injected outages with high precision, every
// sustained outage pages, and the page channel is no slower than the
// operator-visible heartbeat detector at noticing a dead server. Whether a
// crash is sustained long enough to score depends on the seed's placement
// (seeds 1, 2, 6 and 12 score none at the fixed configuration), so the
// scenario-validity bar is a floor on the pooled count: a seed whose storm
// did no damage does not fail the detector.
func TestSLODetectAccuracy(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a 10000s crash-storm scenario per seed")
	}
	cfg := DefaultSLODetectConfig()
	results := overSeeds(t, func(t *testing.T, seed int64) *SLODetectResult {
		cfg := cfg
		cfg.Seed = seed
		r, err := SLODetect(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(r.Outages) != cfg.Crashes {
			t.Fatalf("scripted %d outages, want %d", len(r.Outages), cfg.Crashes)
		}
		t.Logf("scored %d, detected %d, pages %d (%d true)",
			r.ScoredOutages, r.DetectedOutages, r.PagesFired, r.TruePositivePages)
		return r
	})
	if t.Failed() {
		return
	}
	var scored, detected, pages, truePages, both int
	pageSum, hbSum := 0.0, 0.0
	for _, r := range results {
		scored += r.ScoredOutages
		detected += r.DetectedOutages
		pages += r.PagesFired
		truePages += r.TruePositivePages
		for _, ev := range r.Outages {
			if len(ev.ImpactedLC) == 0 || ev.SustainedSecs < cfg.MinSustainedSecs ||
				ev.PageAt < 0 || ev.HBDetectAt < 0 {
				continue
			}
			pageSum += ev.PageAt - ev.At
			hbSum += ev.HBDetectAt - ev.At
			both++
		}
	}
	if floor := len(behaviourSeeds); scored < floor {
		t.Fatalf("only %d outages over %d seeds sustained past the scoring bar (floor %d); the storm no longer injects real damage",
			scored, len(behaviourSeeds), floor)
	}
	if precision := float64(truePages) / float64(max(1, pages)); precision < 0.9 {
		t.Errorf("pooled page precision %.2f < 0.9 (%d true / %d fired)", precision, truePages, pages)
	}
	if detected < scored {
		t.Errorf("pooled outage recall %d/%d < 1.0", detected, scored)
	}
	if both == 0 {
		t.Fatal("no scored outage was detected by both channels")
	}
	pageMTTD, hbMTTD := pageSum/float64(both), hbSum/float64(both)
	if !(pageMTTD <= hbMTTD) { //lint:allow(floatcmp) ordering assertion, NaN must fail
		t.Errorf("pooled page MTTD %.0fs slower than heartbeat MTTD %.0fs", pageMTTD, hbMTTD)
	}
	t.Logf("pooled: %d scored, %d detected, precision %d/%d, MTTD page %.0fs heartbeat %.0fs over %d outages",
		scored, detected, truePages, pages, pageMTTD, hbMTTD, both)
}

// TestSLODetectDeterministic re-runs the full storm and requires the entire
// scored result — outage ground truth, page attribution, and latency
// numbers — to be byte-identical.
func TestSLODetectDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the crash-storm scenario twice")
	}
	marshal := func() string {
		r, err := SLODetect(DefaultSLODetectConfig())
		if err != nil {
			t.Fatal(err)
		}
		out, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		return string(out)
	}
	if want, got := marshal(), marshal(); got != want {
		t.Errorf("rerun result differs\n got %s\nwant %s", got, want)
	}
}
