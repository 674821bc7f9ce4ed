package serve

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"quasar/internal/core"
	"quasar/internal/workload"
)

// TestCompletedWorkloadsAreCollectable drives a serve world through journal
// entries at a constant live set — 12 services plus one short job every
// 30 s, under the SLO engine — for one and then two simulated hours. The
// test drops every Task and Instance right after admission, so every
// completed one must be collectable, and the Tasks still reachable must be
// exactly the live ones: as many after two hours as after one.
func TestCompletedWorkloadsAreCollectable(t *testing.T) {
	w, err := buildWorld(Config{Seed: 5, SLO: true})
	if err != nil {
		t.Fatal(err)
	}
	var tasks, insts atomic.Int64
	seq := 0
	admit := func(at float64, req *SubmitRequest) {
		seq++
		id := fmt.Sprintf("%s-%04d", req.Type, w.U.Counter()+1)
		if _, err := w.step(at, []Entry{{Seq: seq, Kind: KindSubmit, Workload: id, Submit: req}}); err != nil {
			t.Fatal(err)
		}
		tk := w.RT.Task(id)
		runtime.SetFinalizer(tk, func(*core.Task) { tasks.Add(1) })
		runtime.SetFinalizer(tk.W, func(*workload.Instance) { insts.Add(1) })
	}
	svcTypes := []workload.Type{workload.Webserver, workload.Memcached, workload.Cassandra}
	for i := 0; i < 12; i++ {
		admit(float64(i), &SubmitRequest{Type: svcTypes[i%3].String(), Family: -1, MaxNodes: 1})
	}
	short := &workload.Dataset{Name: "short", SizeGB: 5, WorkMult: 0.05, MemMult: 0.8}
	next := 30.0
	held := func(hours float64) int {
		until := hours * 3600
		// Arrivals pause 90 s before the count, long enough for the last
		// short job to finish, so the live set is the 12 services.
		for ; next <= until-90; next += 30 {
			admit(next, &SubmitRequest{Type: workload.SingleNode.String(), Family: -1, TargetSlack: 2, Dataset: short})
		}
		if _, err := w.step(until, nil); err != nil {
			t.Fatal(err)
		}
		next = until
		live := len(w.RT.Live())
		done := int64(seq - live)
		// A Task's finalizer keeps its Instance reachable for one more
		// cycle, and finalizers run on their own goroutine.
		for i := 0; i < 20 && (tasks.Load() < done || insts.Load() < done); i++ {
			runtime.GC()
			time.Sleep(time.Millisecond)
		}
		if tasks.Load() != done || insts.Load() != done {
			t.Errorf("after %g h: %d of %d submissions are live, but %d Tasks and %d Instances were collected, want %d of each",
				hours, live, seq, tasks.Load(), insts.Load(), done)
		}
		return seq - int(tasks.Load())
	}
	atN, at2N := held(1), held(2)
	if atN != at2N {
		t.Errorf("reachable Tasks: %d after 1 h, %d after 2 h", atN, at2N)
	}
	if atN < 12 {
		t.Errorf("only %d Tasks reachable: the 12 services must stay live", atN)
	}
	w.RT.Stop()
}
