package prof

import (
	"strings"
	"testing"
	"time"
)

func TestNilProfilerIsSafe(t *testing.T) {
	var p *Profiler
	if p.Enabled() {
		t.Fatal("nil profiler reports enabled")
	}
	t0 := p.Begin()
	p.End(SubSched, t0) // must not panic
	if s := p.Snapshot(); s.WallSeconds != 0 || len(s.Subsystems) != 0 {
		t.Fatalf("nil snapshot = %+v", s)
	}
	if p.Seconds(SubSched) != 0 {
		t.Fatal("nil Seconds != 0")
	}
}

func TestExclusiveAttribution(t *testing.T) {
	p := New()
	outer := p.Begin()
	time.Sleep(2 * time.Millisecond)
	inner := p.Begin()
	time.Sleep(4 * time.Millisecond)
	p.End(SubSched, inner)
	time.Sleep(1 * time.Millisecond)
	p.End(SubRuntime, outer)

	sched := p.Seconds(SubSched)
	rt := p.Seconds(SubRuntime)
	if sched < 0.003 {
		t.Fatalf("inner section credited %.4fs, slept 4ms", sched)
	}
	// The outer section is charged only its self time: ~3ms of sleep, never
	// the nested 4ms. A generous ceiling still catches double-counting.
	if rt <= 0 || rt >= sched+0.003 {
		t.Fatalf("outer self time %.4fs vs inner %.4fs: nested span leaked into parent", rt, sched)
	}

	snap := p.Snapshot()
	var attributed float64
	for _, row := range snap.Subsystems {
		attributed += row.Seconds
	}
	if attributed > snap.WallSeconds {
		t.Fatalf("attributed %.4fs exceeds wall %.4fs", attributed, snap.WallSeconds)
	}
}

func TestMismatchedEndDropped(t *testing.T) {
	p := New()
	t0 := p.Begin()
	p.End(SubSLO, t0-1) // wrong token: dropped, no attribution
	if p.Seconds(SubSLO) != 0 {
		t.Fatalf("mismatched End attributed %.9fs", p.Seconds(SubSLO))
	}
	// The frame was popped; a stray End on the now-empty stack is a no-op.
	p.End(SubSLO, t0)
	if p.Seconds(SubSLO) != 0 {
		t.Fatal("End on empty stack attributed time")
	}
}

func TestSnapshotOrderingAndCalls(t *testing.T) {
	p := New()
	for i := 0; i < 3; i++ {
		t0 := p.Begin()
		time.Sleep(time.Millisecond)
		p.End(SubChaos, t0)
	}
	t0 := p.Begin()
	time.Sleep(5 * time.Millisecond)
	p.End(SubClassify, t0)

	snap := p.Snapshot()
	if len(snap.Subsystems) != 2 {
		t.Fatalf("snapshot has %d rows, want 2 (zero rows omitted)", len(snap.Subsystems))
	}
	// Sorted by recorded time, not by how long the sleeps were meant to
	// take: on a loaded host three 1 ms sleeps can outlast one of 5 ms.
	if a, b := snap.Subsystems[0], snap.Subsystems[1]; a.Seconds < b.Seconds {
		t.Fatalf("rows not sorted by time: %s %.6fs before %s %.6fs", a.Name, a.Seconds, b.Name, b.Seconds)
	}
	calls := map[string]int64{}
	for _, row := range snap.Subsystems {
		calls[row.Name] = row.Calls
		if row.Frac < 0 || row.Frac > 1 {
			t.Fatalf("row %q frac %.3f out of [0,1]", row.Name, row.Frac)
		}
	}
	if calls["chaos"] != 3 || calls["classify"] != 1 {
		t.Fatalf("calls chaos = %d, classify = %d; want 3 and 1", calls["chaos"], calls["classify"])
	}
}

func TestWriteReport(t *testing.T) {
	p := New()
	t0 := p.Begin()
	time.Sleep(time.Millisecond)
	p.End(SubSimStep, t0)
	var b strings.Builder
	if err := p.WriteReport(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "engine self-profile") || !strings.Contains(out, "sim_step") {
		t.Fatalf("report missing expected rows:\n%s", out)
	}
}

func TestSubsystemString(t *testing.T) {
	if SubTrace.String() != "trace_export" {
		t.Fatalf("SubTrace = %q", SubTrace)
	}
	if got := Subsystem(99).String(); got != "subsystem(99)" {
		t.Fatalf("out-of-range subsystem = %q", got)
	}
}
