package experiments

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"quasar/internal/core"
	"quasar/internal/loadgen"
	"quasar/internal/perfmodel"
	"quasar/internal/workload"
)

// TestCompletedWorkloadsAreCollectable runs a scenario world at a constant
// live set — 12 services plus one short job every 30 s, under the SLO
// engine — for one and then two simulated hours. The test keeps no
// reference to what it submits, so every completed Task and Instance must
// be collectable, and the Tasks still reachable must be exactly the live
// ones: as many after two hours as after one.
func TestCompletedWorkloadsAreCollectable(t *testing.T) {
	s, err := NewScenario(ScenarioConfig{
		Cluster: Local40, Manager: KindQuasar, Seed: 5, MaxNodes: 4, SeedLib: 1, SLO: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	var tasks, insts atomic.Int64
	submitted := 0
	submit := func(spec workload.Spec, at float64) {
		w := s.U.New(spec)
		var load loadgen.Pattern
		if w.Type.Class() == perfmodel.LatencyCritical {
			load = loadgen.Flat{QPS: 0.5 * w.Target.QPS}
		}
		tk := s.RT.Submit(w, at, load)
		runtime.SetFinalizer(tk, func(*core.Task) { tasks.Add(1) })
		runtime.SetFinalizer(w, func(*workload.Instance) { insts.Add(1) })
		submitted++
	}
	svcTypes := []workload.Type{workload.Webserver, workload.Memcached, workload.Cassandra}
	for i := 0; i < 12; i++ {
		submit(workload.Spec{Type: svcTypes[i%3], Family: -1, MaxNodes: 1}, float64(i))
	}
	short := workload.Dataset{Name: "short", SizeGB: 5, WorkMult: 0.05, MemMult: 0.8}
	next := 30.0
	held := func(hours float64) int {
		until := hours * 3600
		// Arrivals pause 90 s before the count, long enough for the last
		// short job to finish, so the live set is the 12 services.
		for ; next <= until-90; next += 30 {
			submit(workload.Spec{Type: workload.SingleNode, Family: -1, TargetSlack: 2, Dataset: short}, next)
		}
		s.RT.Run(until)
		next = until
		live := len(s.RT.Live())
		done := int64(submitted - live)
		// A Task's finalizer keeps its Instance reachable for one more
		// cycle, and finalizers run on their own goroutine.
		for i := 0; i < 20 && (tasks.Load() < done || insts.Load() < done); i++ {
			runtime.GC()
			time.Sleep(time.Millisecond)
		}
		if tasks.Load() != done || insts.Load() != done {
			t.Errorf("after %g h: %d of %d submissions are live, but %d Tasks and %d Instances were collected, want %d of each",
				hours, live, submitted, tasks.Load(), insts.Load(), done)
		}
		return submitted - int(tasks.Load())
	}
	atN, at2N := held(1), held(2)
	if atN != at2N {
		t.Errorf("reachable Tasks: %d after 1 h, %d after 2 h", atN, at2N)
	}
	if atN < 12 {
		t.Errorf("only %d Tasks reachable: the 12 services must stay live", atN)
	}
	s.RT.Stop()
}
