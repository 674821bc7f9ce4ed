package obs

import (
	"bytes"
	"strings"
	"testing"
)

// TestControlsTopKTruncation: the top-K cap is a setting the tracer carries
// for the scheduler, which trims the one decision it builds; the tracer
// itself passes every payload through as emitted, so a decision is never
// trimmed twice.
func TestControlsTopKTruncation(t *testing.T) {
	var off *Tracer
	off.SetTopK(3)
	if off.TopK() != 0 {
		t.Fatalf("nil tracer TopK = %d, want 0", off.TopK())
	}

	tr := New(nil)
	if tr.TopK() != 0 {
		t.Fatalf("fresh tracer TopK = %d, want 0 (full rankings)", tr.TopK())
	}
	tr.SetTopK(3)
	if tr.TopK() != 3 {
		t.Fatalf("TopK = %d after SetTopK(3)", tr.TopK())
	}
	d := ScheduleDecision{Workload: "w0", Outcome: OutcomePlaced}
	for i := 0; i < 10; i++ {
		d.Candidates = append(d.Candidates, Candidate{Server: i, Quality: 1 - float64(i)/10, Picked: i == 7})
	}
	tr.Instant("manager", "sched", "decision", Arg{Key: "decision", Val: d})
	got := tr.Events()[0].Args[0].Val.(ScheduleDecision)
	if len(got.Candidates) != 10 || got.CandidatesDropped != 0 {
		t.Fatalf("tracer rewrote the decision: %d candidates, %d dropped; want 10, 0",
			len(got.Candidates), got.CandidatesDropped)
	}
}

// TestDecisionPayloadIsOneType: each decision payload is recognised in its
// value form by every stage that looks inside payloads — the size estimate
// and the typed encoding — and its pointer form by neither, so a payload can
// never be a decision to one stage and opaque to the next.
func TestDecisionPayloadIsOneType(t *testing.T) {
	sd := ScheduleDecision{Workload: "w-sched", Outcome: OutcomePlaced}
	for i := 0; i < 6; i++ {
		sd.Candidates = append(sd.Candidates, Candidate{Server: i, Platform: "p"})
	}
	ad := AdmitDecision{Workload: "w-admit", Class: "service", Tol: []float64{1}}
	jd := AdjustDecision{Workload: "w-adjust", Actions: []string{"none"}}
	buf := make([]byte, 0, 4096)

	for _, tc := range []struct{ val, ptr any }{{sd, &sd}, {ad, &ad}, {jd, &jd}} {
		if n := argSize(tc.val); n <= 16 {
			t.Errorf("%T sized %d, want a payload-shaped estimate", tc.val, n)
		}
		// The typed appenders write into the caller's buffer; the
		// encoding/json fallback cannot encode without allocating.
		if allocs := testing.AllocsPerRun(10, func() { _, _ = appendValue(buf, tc.val) }); allocs != 0 { //lint:allow(floatcmp) an exact count
			t.Errorf("%T encodes with %v allocs: not on its typed appender", tc.val, allocs)
		}

		if n := argSize(tc.ptr); n != 16 {
			t.Errorf("%T sized %d, want the opaque 16", tc.ptr, n)
		}
		// Still the same JSON, through the fallback.
		want, _ := appendValue(nil, tc.val)
		if got, err := appendValue(nil, tc.ptr); err != nil || !bytes.Equal(got, want) {
			t.Errorf("%T encodes as %s (%v), want %s", tc.ptr, got, err, want)
		}
	}
}

// TestHeaderRecordsControls: the top-K cap rides in the header, the first
// JSONL line, and round-trips through the streaming reader. A header written
// before the level, category and sampling controls were removed still
// reads, its extra fields ignored.
func TestHeaderRecordsControls(t *testing.T) {
	tr := New(nil)
	tr.SetTopK(5)
	if h := tr.Header(); h != (Header{Trace: headerMagic, Version: 2, TopK: 5}) {
		t.Fatalf("header = %+v", h)
	}

	var buf bytes.Buffer
	if err := WriteJSONL(&buf, tr); err != nil {
		t.Fatal(err)
	}
	const want = `{"trace":"quasar-obs","version":2,"top_k":5}` + "\n"
	if line, _, _ := strings.Cut(buf.String(), "\n"); line+"\n" != want {
		t.Fatalf("header line = %s, want %s", line, want)
	}
	back, err := ReadHeader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if back == nil || back.TopK != 5 {
		t.Fatalf("header after round-trip = %+v", back)
	}

	old := `{"trace":"quasar-obs","version":2,"level":"decision","levels":[{"cat":"chaos","level":"off"}],"sample_workloads":0.25,"top_k":5,"sampled":true}` + "\n"
	back, err = ReadHeader(strings.NewReader(old))
	if err != nil {
		t.Fatal(err)
	}
	if back == nil || *back != (Header{Trace: headerMagic, Version: 2, TopK: 5}) {
		t.Fatalf("older header read as %+v", back)
	}
}
