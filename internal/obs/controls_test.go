package obs

import (
	"bytes"
	"fmt"
	"testing"
)

func TestSampleKeepDeterministic(t *testing.T) {
	// The verdict is a pure function of the ID and fraction.
	for i := 0; i < 100; i++ {
		id := fmt.Sprintf("w%d", i)
		first := SampleKeep(id, 0.3)
		for rep := 0; rep < 3; rep++ {
			if SampleKeep(id, 0.3) != first {
				t.Fatalf("SampleKeep(%q, 0.3) changed between calls", id)
			}
		}
	}
	// Degenerate fractions keep everything.
	for _, frac := range []float64{0, -1, 1, 2} {
		if !SampleKeep("anything", frac) {
			t.Fatalf("SampleKeep(_, %v) = false, want true", frac)
		}
	}
	// The kept subset is monotone in the fraction: raising the sampling rate
	// only adds workloads, never swaps them (the hash threshold just moves).
	kept := 0
	for i := 0; i < 2000; i++ {
		id := fmt.Sprintf("workload-%d", i)
		lo, hi := SampleKeep(id, 0.2), SampleKeep(id, 0.6)
		if lo && !hi {
			t.Fatalf("%q kept at 0.2 but dropped at 0.6", id)
		}
		if SampleKeep(id, 0.3) {
			kept++
		}
	}
	// The hash spreads sequential IDs across the threshold: some kept, some
	// dropped, in the rough vicinity of the fraction. (FNV-1a is not a
	// cryptographic mix — structured ID families can land a few tens of
	// percent off the nominal rate, which is fine: the contract is
	// determinism, not statistical uniformity.)
	if kept < 200 || kept > 1200 {
		t.Fatalf("kept %d of 2000 at frac 0.3, want a nontrivial fraction", kept)
	}
}

func TestControlsLevelFiltering(t *testing.T) {
	tr := New(nil)
	tr.SetControls(Controls{
		Default:  LevelLifecycle,
		Category: map[string]Level{"chaos": LevelOff},
	})
	tr.Instant("manager", "sched", "admit")                                                          // lifecycle: kept
	tr.Counter("cluster", "util", "busy", Arg{Key: "n", Val: 1})                                     // debug: dropped
	tr.Instant("manager", "sched", "decision", Arg{Key: "d", Val: ScheduleDecision{Workload: "w0"}}) // decision: dropped
	tr.Instant("server/0", "chaos", "crash")                                                         // category off: dropped
	tr.Instant("manager", "runtime", "tick")                                                         // lifecycle: kept

	if tr.Len() != 2 {
		t.Fatalf("kept %d events, want 2", tr.Len())
	}
	if tr.Dropped() != 3 {
		t.Fatalf("Dropped() = %d, want 3", tr.Dropped())
	}
	// Filtering happens before sequence assignment: the surviving stream has
	// contiguous seqs starting at 1.
	for i, ev := range tr.Events() {
		if ev.Seq != uint64(i+1) {
			t.Fatalf("event %d has seq %d, want %d (seqs must stay contiguous after filtering)", i, ev.Seq, i+1)
		}
	}
}

func TestControlsWorkloadSampling(t *testing.T) {
	const frac = 0.5
	tr := New(nil)
	tr.SetControls(Controls{SampleWorkloads: frac})
	var wantKept []string
	for i := 0; i < 40; i++ {
		w := fmt.Sprintf("w%d", i)
		tr.Instant("workload/"+w, "qos", "met")
		if SampleKeep(w, frac) {
			wantKept = append(wantKept, "workload/"+w)
		}
	}
	tr.Instant("cluster", "util", "snapshot") // no workload identity: always kept

	evs := tr.Events()
	if len(evs) != len(wantKept)+1 {
		t.Fatalf("kept %d events, want %d sampled + 1 cluster", len(evs), len(wantKept))
	}
	for i, want := range wantKept {
		if evs[i].Track != want {
			t.Fatalf("event %d on track %q, want %q", i, evs[i].Track, want)
		}
	}
	if last := evs[len(evs)-1]; last.Track != "cluster" {
		t.Fatalf("cluster event missing; last track is %q", last.Track)
	}
	// The async placement pair ID carries the same identity, so the span
	// follows its workload's verdict.
	tr2 := New(nil)
	tr2.SetControls(Controls{SampleWorkloads: frac})
	tr2.BeginAsync("w0@3", "server/3", "place", "w0")
	tr2.BeginAsync("w1@3", "server/3", "place", "w1")
	want := 0
	if SampleKeep("w0", frac) {
		want++
	}
	if SampleKeep("w1", frac) {
		want++
	}
	if tr2.Len() != want {
		t.Fatalf("async spans kept %d, want %d", tr2.Len(), want)
	}
}

func TestControlsTopKTruncation(t *testing.T) {
	mk := func(n, picked int) ScheduleDecision {
		d := ScheduleDecision{Workload: "w0", Outcome: OutcomePlaced}
		for i := 0; i < n; i++ {
			d.Candidates = append(d.Candidates, Candidate{Server: i, Quality: 1 - float64(i)/10, Picked: i == picked})
		}
		return d
	}
	tr := New(nil)
	tr.SetControls(Controls{TopK: 3})
	orig := mk(10, 7)
	tr.Instant("manager", "sched", "decision", Arg{Key: "decision", Val: orig})
	tr.Instant("manager", "sched", "decision", Arg{Key: "decision", Val: mk(2, 0)})

	got := tr.Events()[0].Args[0].Val.(ScheduleDecision)
	if len(got.Candidates) != 4 {
		t.Fatalf("truncated to %d candidates, want 4 (top 3 + picked)", len(got.Candidates))
	}
	for i := 0; i < 3; i++ {
		if got.Candidates[i].Server != i {
			t.Fatalf("candidate %d is server %d, want %d", i, got.Candidates[i].Server, i)
		}
	}
	if last := got.Candidates[3]; last.Server != 7 || !last.Picked {
		t.Fatalf("picked candidate beyond the cut not retained: %+v", last)
	}
	if got.CandidatesDropped != 6 {
		t.Fatalf("CandidatesDropped = %d, want 6", got.CandidatesDropped)
	}
	// Truncation copies; the caller's decision is untouched.
	if len(orig.Candidates) != 10 || orig.CandidatesDropped != 0 {
		t.Fatalf("truncate mutated the caller's decision: %d candidates, dropped %d",
			len(orig.Candidates), orig.CandidatesDropped)
	}
	// Below the cut nothing changes.
	small := tr.Events()[1].Args[0].Val.(ScheduleDecision)
	if len(small.Candidates) != 2 || small.CandidatesDropped != 0 {
		t.Fatalf("small decision modified: %+v", small)
	}
}

// TestDecisionPayloadIsOneType: each decision payload is recognised in its
// value form by every stage that looks inside payloads — level, sampling,
// truncation, size estimate, typed encoding — and its pointer form by none of
// them, so a payload can never be a decision to one stage and opaque to the
// next.
func TestDecisionPayloadIsOneType(t *testing.T) {
	sd := ScheduleDecision{Workload: "w-sched", Outcome: OutcomePlaced}
	for i := 0; i < 6; i++ {
		sd.Candidates = append(sd.Candidates, Candidate{Server: i, Platform: "p"})
	}
	ad := AdmitDecision{Workload: "w-admit", Class: "service", Tol: []float64{1}}
	jd := AdjustDecision{Workload: "w-adjust", Actions: []string{"none"}}
	ctl := Controls{TopK: 2}
	buf := make([]byte, 0, 4096)

	for _, tc := range []struct {
		val, ptr any
		workload string
	}{
		{sd, &sd, "w-sched"}, {ad, &ad, "w-admit"}, {jd, &jd, "w-adjust"},
	} {
		args := []Arg{{Key: "decision", Val: tc.val}}
		if l := eventLevel(PhaseInstant, args); l != LevelDecision {
			t.Errorf("%T levelled %v, want decision", tc.val, l)
		}
		if w := eventWorkload(PhaseInstant, "", "manager", args); w != tc.workload {
			t.Errorf("%T sampled under workload %q, want %q", tc.val, w, tc.workload)
		}
		if n := argSize(tc.val); n <= 16 {
			t.Errorf("%T sized %d, want a payload-shaped estimate", tc.val, n)
		}
		// The typed appenders write into the caller's buffer; the
		// encoding/json fallback cannot encode without allocating.
		if allocs := testing.AllocsPerRun(10, func() { _, _ = appendValue(buf, tc.val) }); allocs != 0 { //lint:allow(floatcmp) an exact count
			t.Errorf("%T encodes with %v allocs: not on its typed appender", tc.val, allocs)
		}

		args = []Arg{{Key: "decision", Val: tc.ptr}}
		if l := eventLevel(PhaseInstant, args); l != LevelLifecycle {
			t.Errorf("%T levelled %v, want lifecycle", tc.ptr, l)
		}
		if w := eventWorkload(PhaseInstant, "", "manager", args); w != "" {
			t.Errorf("%T sampled under workload %q, want none", tc.ptr, w)
		}
		if n := argSize(tc.ptr); n != 16 {
			t.Errorf("%T sized %d, want the opaque 16", tc.ptr, n)
		}
		if out := ctl.truncate(args); out[0].Val != tc.ptr {
			t.Errorf("%T was rewritten by truncate", tc.ptr)
		}
		// Still the same JSON, through the fallback.
		want, _ := appendValue(nil, tc.val)
		if got, err := appendValue(nil, tc.ptr); err != nil || !bytes.Equal(got, want) {
			t.Errorf("%T encodes as %s (%v), want %s", tc.ptr, got, err, want)
		}
	}

	out := ctl.truncate([]Arg{{Key: "decision", Val: sd}})
	if got := out[0].Val.(ScheduleDecision); len(got.Candidates) != 2 || got.CandidatesDropped != 4 {
		t.Errorf("value-form ScheduleDecision not truncated: %d candidates, %d dropped", len(got.Candidates), got.CandidatesDropped)
	}
}

func TestHeaderRecordsControls(t *testing.T) {
	tr := New(nil)
	tr.SetControls(Controls{
		Default:         LevelDecision,
		Category:        map[string]Level{"runtime": LevelLifecycle, "chaos": LevelOff},
		SampleWorkloads: 0.25,
		TopK:            5,
	})
	h := tr.Header()
	if h.Trace != headerMagic || h.Version != 2 {
		t.Fatalf("header identity = %q v%d", h.Trace, h.Version)
	}
	if h.Level != "decision" || h.Sample != 0.25 || h.TopK != 5 || !h.Sampled {
		t.Fatalf("header controls = %+v", h)
	}
	// Category overrides are sorted so the header is byte-stable.
	if len(h.Levels) != 2 || h.Levels[0].Cat != "chaos" || h.Levels[1].Cat != "runtime" {
		t.Fatalf("header levels = %+v", h.Levels)
	}

	// The header rides as the first JSONL line and round-trips through the
	// streaming reader.
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, tr); err != nil {
		t.Fatal(err)
	}
	back, err := ReadHeader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if back == nil || back.Level != "decision" || back.Sample != 0.25 || back.TopK != 5 {
		t.Fatalf("header after round-trip = %+v", back)
	}
}
