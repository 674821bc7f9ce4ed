package experiments

import (
	"encoding/json"
	"testing"
)

// TestSLODetectAccuracy runs the canned crash storm and holds the PR's
// alerting-quality bar: pages attribute to injected outages with high
// precision, every sustained outage pages, and the page channel is no slower
// than the operator-visible heartbeat detector at noticing a dead server.
func TestSLODetectAccuracy(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a 10000s crash-storm scenario")
	}
	r, err := SLODetect(DefaultSLODetectConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Outages) != 4 {
		t.Fatalf("scripted %d outages, want 4", len(r.Outages))
	}
	if r.ScoredOutages < 2 {
		t.Fatalf("only %d outages sustained past the scoring bar; the storm no longer injects real damage", r.ScoredOutages)
	}
	if r.Precision < 0.9 {
		t.Errorf("page precision %.2f < 0.9 (%d true / %d false)",
			r.Precision, r.TruePositivePages, r.FalsePositivePages)
	}
	if r.Recall < 1.0 {
		t.Errorf("outage recall %.2f < 1.0 (%d/%d)", r.Recall, r.DetectedOutages, r.ScoredOutages)
	}
	if !(r.PageMTTDSecs <= r.HBMTTDSecs) { //lint:allow(floatcmp) ordering assertion, NaN must fail
		t.Errorf("page MTTD %.0fs slower than heartbeat MTTD %.0fs", r.PageMTTDSecs, r.HBMTTDSecs)
	}
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
