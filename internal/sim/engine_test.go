package sim

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestScheduleOrdering(t *testing.T) {
	e := NewEngine()
	var got []int
	e.Schedule(3, func() { got = append(got, 3) })
	e.Schedule(1, func() { got = append(got, 1) })
	e.Schedule(2, func() { got = append(got, 2) })
	e.RunAll()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("events fired out of order: %v", got)
	}
	if e.Now() != 3 {
		t.Fatalf("clock = %v, want 3", e.Now())
	}
}

func TestTieBreakBySchedulingOrder(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5, func() { got = append(got, i) })
	}
	e.RunAll()
	for i, v := range got {
		if v != i {
			t.Fatalf("tie-break violated at %d: %v", i, got)
		}
	}
}

func TestCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	id := e.Schedule(1, func() { fired = true })
	if !e.Cancel(id) {
		t.Fatal("cancel of pending event returned false")
	}
	if e.Cancel(id) {
		t.Fatal("double cancel returned true")
	}
	e.RunAll()
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestCancelMiddleOfHeap(t *testing.T) {
	e := NewEngine()
	var got []float64
	ids := make([]EventID, 0, 20)
	for i := 1; i <= 20; i++ {
		at := float64(i)
		ids = append(ids, e.Schedule(at, func() { got = append(got, at) }))
	}
	// Cancel every third event.
	want := []float64{}
	for i := 1; i <= 20; i++ {
		if i%3 == 0 {
			e.Cancel(ids[i-1])
		} else {
			want = append(want, float64(i))
		}
	}
	e.RunAll()
	if len(got) != len(want) {
		t.Fatalf("got %d events, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("event %d at %v, want %v", i, got[i], want[i])
		}
	}
}

func TestRunStopsAtDeadline(t *testing.T) {
	e := NewEngine()
	var fired []float64
	for _, at := range []float64{1, 2, 3, 4, 5} {
		at := at
		e.Schedule(at, func() { fired = append(fired, at) })
	}
	e.Run(3)
	if len(fired) != 3 {
		t.Fatalf("fired %v, want events at 1..3", fired)
	}
	if e.Now() != 3 {
		t.Fatalf("clock = %v, want 3", e.Now())
	}
	e.Run(10)
	if len(fired) != 5 {
		t.Fatalf("fired %v after second run", fired)
	}
	if e.Now() != 10 {
		t.Fatalf("clock = %v, want 10", e.Now())
	}
}

func TestSchedulingInsideEvent(t *testing.T) {
	e := NewEngine()
	count := 0
	var recur func()
	recur = func() {
		count++
		if count < 5 {
			e.After(1, recur)
		}
	}
	e.Schedule(0, recur)
	e.RunAll()
	if count != 5 {
		t.Fatalf("count = %d, want 5", count)
	}
	if e.Now() != 4 {
		t.Fatalf("clock = %v, want 4", e.Now())
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(5, func() {})
	e.Step()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	e.Schedule(1, func() {})
}

func TestScheduleNaNPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling at NaN did not panic")
		}
	}()
	e.Schedule(math.NaN(), func() {})
}

func TestTicker(t *testing.T) {
	e := NewEngine()
	var ticks []float64
	stop := e.Ticker(0, 2, func(now float64) { ticks = append(ticks, now) })
	e.Run(7)
	if len(ticks) != 4 { // 0,2,4,6
		t.Fatalf("ticks = %v, want 4 ticks", ticks)
	}
	stop()
	e.Run(20)
	if len(ticks) != 4 {
		t.Fatalf("ticker kept firing after stop: %v", ticks)
	}
}

func TestTickerStopInsideCallback(t *testing.T) {
	e := NewEngine()
	n := 0
	var stop func()
	stop = e.Ticker(1, 1, func(now float64) {
		n++
		if n == 3 {
			stop()
		}
	})
	e.Run(10)
	if n != 3 {
		t.Fatalf("ticks = %d, want 3", n)
	}
}

func TestPending(t *testing.T) {
	e := NewEngine()
	if e.Pending() != 0 {
		t.Fatal("fresh engine has pending events")
	}
	e.Schedule(1, func() {})
	e.Schedule(2, func() {})
	if e.Pending() != 2 {
		t.Fatalf("pending = %d, want 2", e.Pending())
	}
	e.Step()
	if e.Pending() != 1 {
		t.Fatalf("pending = %d after step, want 1", e.Pending())
	}
}

// Property: regardless of insertion order, events fire in nondecreasing time
// order.
func TestEventOrderProperty(t *testing.T) {
	f := func(times []uint16) bool {
		if len(times) > 200 {
			times = times[:200]
		}
		e := NewEngine()
		var fired []float64
		for _, raw := range times {
			at := float64(raw)
			e.Schedule(at, func() { fired = append(fired, at) })
		}
		e.RunAll()
		if len(fired) != len(times) {
			return false
		}
		return sort.Float64sAreSorted(fired)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() []float64 {
		e := NewEngine()
		g := NewRNG(42)
		var fired []float64
		for i := 0; i < 100; i++ {
			at := g.Uniform(0, 1000)
			e.Schedule(at, func() { fired = append(fired, at) })
		}
		e.RunAll()
		return fired
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestHeapDrainSorted pushes a scrambled time series with deliberate exact
// ties straight into the event heap and requires pops in exact (at, seq)
// order.
func TestHeapDrainSorted(t *testing.T) {
	var q eventHeap
	rng := NewRNG(41)
	const n = 5000
	evs := make([]*event, n)
	for i := 0; i < n; i++ {
		at := rng.Uniform(0, 1000)
		if i%17 == 0 {
			at = float64(i % 97) // deliberate exact ties
		}
		evs[i] = &event{at: at, seq: uint64(i)}
		q.push(evs[i])
	}
	want := append([]*event(nil), evs...)
	sort.Slice(want, func(i, j int) bool {
		if want[i].at != want[j].at {
			return want[i].at < want[j].at
		}
		return want[i].seq < want[j].seq
	})
	for i, w := range want {
		got := q.pop()
		if got == nil {
			t.Fatalf("pop %d: queue empty early", i)
		}
		if got != w {
			t.Fatalf("pop %d: got (at=%v seq=%d), want (at=%v seq=%d)",
				i, got.at, got.seq, w.at, w.seq)
		}
	}
	if q.pop() != nil {
		t.Fatal("queue should be empty")
	}
}

// TestCancelAfterFire is the regression test for the recycled-record hazard:
// cancelling an event that already fired — after its record has been
// recycled into a NEW event — must be a no-op and must not destroy the new
// event. This and the two cancel tests below run in a subtest named for the
// engine's event queue, the binary heap.
func TestCancelAfterFire(t *testing.T) {
	t.Run("heap", func(t *testing.T) {
		e := NewEngine()
		fired := map[string]int{}
		stale := e.After(1, func() { fired["a"]++ })
		if !e.Step() {
			t.Fatal("step failed")
		}
		// The freelist now holds a's record; this Schedule reuses it.
		e.After(1, func() { fired["b"]++ })
		if e.Cancel(stale) {
			t.Error("cancel of an already-fired event reported success")
		}
		if got := e.Pending(); got != 1 {
			t.Fatalf("stale cancel corrupted the queue: %d pending, want 1", got)
		}
		e.RunAll()
		if fired["a"] != 1 || fired["b"] != 1 {
			t.Fatalf("fired = %v, want a:1 b:1", fired)
		}
	})
}

// TestDoubleCancel cancels the same event twice: the first must succeed, the
// second must be a no-op even after the record has been reissued to a new
// event.
func TestDoubleCancel(t *testing.T) {
	t.Run("heap", func(t *testing.T) {
		e := NewEngine()
		fired := 0
		id := e.After(5, func() { fired++ })
		if !e.Cancel(id) {
			t.Fatal("first cancel should succeed")
		}
		if e.Cancel(id) {
			t.Error("second cancel reported success")
		}
		// Reissue the recycled record, then double-cancel again: the stale id
		// must not reach the new event through the freelist.
		e.After(1, func() { fired += 10 })
		if e.Cancel(id) {
			t.Error("stale cancel after reissue reported success")
		}
		if got := e.Pending(); got != 1 {
			t.Fatalf("%d pending, want 1", got)
		}
		e.RunAll()
		if fired != 10 {
			t.Fatalf("fired = %d, want 10 (survivor only)", fired)
		}
	})
}

// TestCancelInsideCallback cancels the currently-firing event and a sibling
// from inside a callback: self-cancel is a no-op, sibling-cancel works, and
// the queue stays consistent.
func TestCancelInsideCallback(t *testing.T) {
	t.Run("heap", func(t *testing.T) {
		e := NewEngine()
		var self, sibling EventID
		siblingFired := false
		self = e.After(1, func() {
			if e.Cancel(self) {
				t.Error("self-cancel of the firing event reported success")
			}
			if !e.Cancel(sibling) {
				t.Error("sibling cancel should succeed")
			}
		})
		sibling = e.After(2, func() { siblingFired = true })
		e.RunAll()
		if siblingFired {
			t.Error("cancelled sibling fired")
		}
		if e.Pending() != 0 {
			t.Fatalf("%d pending, want 0", e.Pending())
		}
	})
}
