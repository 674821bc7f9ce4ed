package sim

import (
	"fmt"
	"math"
	"slices"
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
// order. Then, differentially: random sequences of Schedule (small integer
// times, so ties occur), Cancel (of pending, fired, cancelled and never-issued
// ids), Step, scheduling from inside a callback and Ticker start/stop run
// against the engine and against refQueue, and after every op the fire
// order, Now, Pending, NextAt and Cancel's result must agree.
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

	// siftUps counts cancels whose refilled slot had to move toward the
	// root; cancels counts Cancel calls by what the id named.
	siftUps := 0
	var cancels struct{ pending, fired, cancelled, neverIssued int }
	for seed := int64(1); seed <= 200; seed++ {
		rng := NewRNG(seed)
		eng := NewEngine()
		ref := &refQueue{}
		sides := [2]*queueRun{{q: eng}, {q: ref}}
		cancelled := map[int]bool{}
		for op := 1; op <= 300; op++ {
			var res [2]bool
			switch k := rng.Intn(20); {
			case k < 8:
				at := eng.Now() + float64(rng.Intn(6))
				spawn := rng.Bool(0.2)
				for _, d := range sides {
					d.schedule(at, op, spawn)
				}
			case k < 12:
				j := rng.Intn(len(sides[0].ids) + 2)
				ids := [2]EventID{EventID(1<<40 + op), EventID(1<<40 + op)}
				switch {
				case j == len(sides[0].ids):
					ids = [2]EventID{} // the zero id
					cancels.neverIssued++
				case j > len(sides[0].ids):
					cancels.neverIssued++
				default:
					ids = [2]EventID{sides[0].ids[j], sides[1].ids[j]}
					switch {
					case cancelled[j]:
						cancels.cancelled++
					case ref.pending(ids[1]):
						cancels.pending++
						cancelled[j] = true
					default:
						cancels.fired++
					}
				}
				for i := range eng.q {
					if n := len(eng.q) - 1; eng.q[i].seq == uint64(ids[0]) &&
						i > 0 && i < n && eng.q[n].before(&eng.q[(i-1)/2]) {
						siftUps++
					}
				}
				for i, d := range sides {
					res[i] = d.q.Cancel(ids[i])
				}
			case k < 17:
				for i, d := range sides {
					res[i] = d.q.Step()
				}
			case k < 18:
				start := eng.Now() + float64(rng.Intn(4))
				period := float64(1 + rng.Intn(5))
				for _, d := range sides {
					d.ticker(start, period, op)
				}
			default:
				if len(sides[0].stops) > 0 {
					j := rng.Intn(len(sides[0].stops))
					for _, d := range sides {
						d.stops[j]()
					}
				}
			}
			a, b := sides[0], sides[1]
			atA, okA := a.q.NextAt()
			atB, okB := b.q.NextAt()
			if res[0] != res[1] || a.q.Now() != b.q.Now() || a.q.Pending() != b.q.Pending() ||
				atA != atB || okA != okB || len(a.ids) != len(b.ids) || !slices.Equal(a.log, b.log) {
				t.Fatalf("seed %d op %d: engine and reference diverged\n"+
					"result %v/%v now %v/%v pending %d/%d next %v,%v/%v,%v\nengine log %v\nref log    %v",
					seed, op, res[0], res[1], a.q.Now(), b.q.Now(), a.q.Pending(), b.q.Pending(),
					atA, okA, atB, okB, a.log, b.log)
			}
			if eng.Fired() != uint64(len(a.log)) {
				t.Fatalf("seed %d op %d: Fired() = %d, %d callbacks ran", seed, op, eng.Fired(), len(a.log))
			}
			for i := 1; i < len(eng.q); i++ {
				if eng.q[i].before(&eng.q[(i-1)/2]) {
					t.Fatalf("seed %d op %d: heap order broken at slot %d", seed, op, i)
				}
			}
			for i, ev := range eng.q[len(eng.q):cap(eng.q)] {
				if ev.fn != nil {
					t.Fatalf("seed %d op %d: spare slot %d still holds a closure", seed, op, len(eng.q)+i)
				}
			}
		}
	}
	t.Logf("sift-ups %d, cancels %+v", siftUps, cancels)
	if siftUps == 0 {
		t.Error("no cancel reached remove's sift-up branch")
	}
	if cancels.pending == 0 || cancels.fired == 0 || cancels.cancelled == 0 || cancels.neverIssued == 0 {
		t.Errorf("cancel kinds not all exercised: %+v", cancels)
	}
}

// queueRun drives one event queue through TestEventOrderProperty's op
// sequence and logs every callback as label@time.
type queueRun struct {
	q interface {
		Now() float64
		Schedule(at float64, fn func()) EventID
		Cancel(id EventID) bool
		Step() bool
		Pending() int
		NextAt() (float64, bool)
		Ticker(start, period float64, fn func(now float64)) (stop func())
	}
	log   []string
	ids   []EventID // every id schedule returned, in order
	stops []func()
}

// schedule adds an event at at; with spawn, its callback schedules a child
// event from inside the callback.
func (d *queueRun) schedule(at float64, label int, spawn bool) {
	d.ids = append(d.ids, d.q.Schedule(at, func() {
		d.log = append(d.log, fmt.Sprintf("%d@%v", label, d.q.Now()))
		if spawn {
			d.schedule(d.q.Now()+float64(label%3), -label, false)
		}
	}))
}

func (d *queueRun) ticker(start, period float64, label int) {
	d.stops = append(d.stops, d.q.Ticker(start, period, func(now float64) {
		d.log = append(d.log, fmt.Sprintf("t%d@%v", label, now))
	}))
}

// refQueue is the reference event queue: an unordered slice whose next
// event is found by linear search on (at, seq).
type refQueue struct {
	now float64
	seq uint64
	evs []refEvent
}

type refEvent struct {
	at  float64
	seq uint64
	fn  func()
}

func (r *refQueue) Now() float64 { return r.now }

func (r *refQueue) Schedule(at float64, fn func()) EventID {
	r.seq++
	r.evs = append(r.evs, refEvent{at, r.seq, fn})
	return EventID(r.seq)
}

// next returns the index of the event that fires next, or -1.
func (r *refQueue) next() int {
	m := -1
	for i, ev := range r.evs {
		if m < 0 || ev.at < r.evs[m].at || (ev.at == r.evs[m].at && ev.seq < r.evs[m].seq) {
			m = i
		}
	}
	return m
}

func (r *refQueue) pending(id EventID) bool {
	for _, ev := range r.evs {
		if ev.seq == uint64(id) {
			return true
		}
	}
	return false
}

func (r *refQueue) Cancel(id EventID) bool {
	for i, ev := range r.evs {
		if ev.seq == uint64(id) {
			r.evs = slices.Delete(r.evs, i, i+1)
			return true
		}
	}
	return false
}

func (r *refQueue) Step() bool {
	m := r.next()
	if m < 0 {
		return false
	}
	ev := r.evs[m]
	r.evs = slices.Delete(r.evs, m, m+1)
	r.now = ev.at
	ev.fn()
	return true
}

func (r *refQueue) Pending() int { return len(r.evs) }

func (r *refQueue) NextAt() (float64, bool) {
	if m := r.next(); m >= 0 {
		return r.evs[m].at, true
	}
	return 0, false
}

func (r *refQueue) Ticker(start, period float64, fn func(now float64)) (stop func()) {
	stopped := false
	at := start
	var id EventID
	var tick func()
	tick = func() {
		if stopped {
			return
		}
		fn(r.now)
		at += period
		id = r.Schedule(at, tick)
	}
	id = r.Schedule(at, tick)
	return func() {
		stopped = true
		r.Cancel(id)
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
	evs := make([]event, n)
	for i := 0; i < n; i++ {
		at := rng.Uniform(0, 1000)
		if i%17 == 0 {
			at = float64(i % 97) // deliberate exact ties
		}
		evs[i] = event{at: at, seq: uint64(i)}
		q.push(evs[i])
	}
	want := append([]event(nil), evs...)
	sort.Slice(want, func(i, j int) bool {
		if want[i].at != want[j].at {
			return want[i].at < want[j].at
		}
		return want[i].seq < want[j].seq
	})
	for i, w := range want {
		if len(q) == 0 {
			t.Fatalf("pop %d: queue empty early", i)
		}
		got := q.pop()
		if got.at != w.at || got.seq != w.seq {
			t.Fatalf("pop %d: got (at=%v seq=%d), want (at=%v seq=%d)",
				i, got.at, got.seq, w.at, w.seq)
		}
	}
	if len(q) != 0 {
		t.Fatal("queue should be empty")
	}
}

// TestCancelAfterFire: cancelling an event that already fired — after a NEW
// event has been scheduled in its place — must be a no-op and must not
// destroy the new event. This and the two cancel tests below run in a subtest named for the
// engine's event queue, the binary heap.
func TestCancelAfterFire(t *testing.T) {
	t.Run("heap", func(t *testing.T) {
		e := NewEngine()
		fired := map[string]int{}
		stale := e.After(1, func() { fired["a"]++ })
		if !e.Step() {
			t.Fatal("step failed")
		}
		// b takes the heap slot a vacated.
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
// second must be a no-op even after a new event has been scheduled.
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
		// Schedule a new event into the vacated slot, then cancel again: the
		// stale id must not reach the new event.
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

// BenchmarkEngineStep times one Step at a steady pending count: each fired
// event reschedules itself, so every op is one pop and one push. 16 pending
// events is a small simulation's queue; 5 000 is sim_scale_churn's, which
// schedules all its arrivals up front.
func BenchmarkEngineStep(b *testing.B) {
	for _, n := range []int{16, 5000} {
		b.Run(fmt.Sprintf("pending=%d", n), func(b *testing.B) {
			rng := NewRNG(1)
			delays := make([]float64, 1024)
			for i := range delays {
				delays[i] = rng.Uniform(0, 100)
			}
			e := NewEngine()
			k := 0
			var tick func()
			tick = func() {
				k++
				e.After(delays[k%len(delays)], tick)
			}
			for i := 0; i < n; i++ {
				e.Schedule(delays[i%len(delays)], tick)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Step()
			}
		})
	}
}
