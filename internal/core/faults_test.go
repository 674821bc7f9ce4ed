package core

import (
	"testing"

	"quasar/internal/cluster"
	"quasar/internal/loadgen"
	"quasar/internal/workload"
)

// detectorFixture wires a nullManager runtime with the heartbeat detector on
// and one single-node task placed on server 36.
func detectorFixture(t *testing.T) (*Runtime, *Task, *cluster.Server) {
	t.Helper()
	rt, u := newTestRuntime(t)
	rt.EnableFailureDetector(DetectorOptions{PeriodSecs: 10, SuspectMissed: 2, DeadMissed: 4})
	w := u.New(workload.Spec{Type: workload.SingleNode, Family: -1})
	w.Genome.Work = 1e9 // effectively never completes
	m := &nullManager{rt: rt, alloc: cluster.Alloc{Cores: 4, MemoryGB: 8}, server: 36, nodes: 1}
	rt.SetManager(m)
	task := rt.Submit(w, 0, nil)
	return rt, task, rt.Cl.Servers[36]
}

func TestDetectorDeclaresDeadAndFences(t *testing.T) {
	rt, task, srv := detectorFixture(t)
	rt.Run(4)
	if !rt.CrashServer(36) {
		t.Fatal("CrashServer no-oped on an up server")
	}
	if task.NumNodes() != 1 {
		t.Fatal("crash alone should not remove placements before detection")
	}

	// Heartbeats at 10,20,30,40: suspect on the 2nd miss, dead on the 4th.
	rt.Run(25)
	if srv.Det() != cluster.DetSuspect {
		t.Fatalf("after 2 missed beats Det = %v, want suspect", srv.Det())
	}
	if task.NumNodes() != 1 {
		t.Fatal("suspect state must not fence residents")
	}
	rt.Run(45)
	if srv.Det() != cluster.DetDead {
		t.Fatalf("after 4 missed beats Det = %v, want dead", srv.Det())
	}
	if task.NumNodes() != 0 || task.Status != StatusQueued {
		t.Fatalf("fencing: nodes=%d status=%v, want 0/queued", task.NumNodes(), task.Status)
	}
	if srv.NumPlacements() != 0 {
		t.Fatal("dead server still holds placements")
	}
	rt.Stop()
}

// TestFenceDisplacesEveryResidentOnce: fencing used to range over the
// server's live resident list while removing from it, so with three or more
// residents every other one stayed on the dead server and the last was
// reported displaced twice (and re-queued twice by the recovery policy).
func TestFenceDisplacesEveryResidentOnce(t *testing.T) {
	rt, u := newTestRuntime(t)
	srv := rt.Cl.Servers[36]
	var residents []*Task
	for i := 0; i < 4; i++ {
		task := rt.Submit(u.New(workload.Spec{Type: workload.SingleNode, Family: -1}), 1e9, nil)
		if err := rt.Place(task, srv, cluster.Alloc{Cores: 1, MemoryGB: 1}); err != nil {
			t.Fatal(err)
		}
		residents = append(residents, task)
	}
	displaced := rt.fence(srv, "test")
	if srv.NumPlacements() != 0 {
		t.Errorf("fenced server still holds %d placements", srv.NumPlacements())
	}
	times := map[*Task]int{}
	for _, task := range displaced {
		times[task]++
	}
	for i, task := range residents {
		if times[task] != 1 || task.NumNodes() != 0 || task.Status != StatusQueued {
			t.Errorf("resident %d: displaced %d times, %d nodes, %v; want once, 0, queued",
				i, times[task], task.NumNodes(), task.Status)
		}
	}
}

func TestTransientBlipGoesUndetected(t *testing.T) {
	rt, task, srv := detectorFixture(t)
	rt.Run(4)
	rt.CrashServer(36)
	rt.Run(12)
	if !rt.RestartServer(36) {
		t.Fatal("RestartServer no-oped on a down server")
	}
	rt.Run(60)
	// Restarted inside the suspect window: the manager never learns.
	if srv.Det() != cluster.DetOK {
		t.Fatalf("Det = %v after transient blip, want OK", srv.Det())
	}
	if task.NumNodes() != 1 || task.Status != StatusRunning {
		t.Fatalf("transient blip displaced the task: nodes=%d status=%v", task.NumNodes(), task.Status)
	}
	rt.Stop()
}

func TestPartitionFencedThenRestored(t *testing.T) {
	rt, task, srv := detectorFixture(t)
	rt.Run(4)
	if !rt.PartitionServer(36) {
		t.Fatal("PartitionServer no-oped")
	}
	rt.Run(45)
	if !srv.Up() {
		t.Fatal("partition took the server down; it should stay up")
	}
	if srv.Det() != cluster.DetDead || task.NumNodes() != 0 {
		t.Fatalf("partitioned past the window: Det=%v nodes=%d, want dead/0", srv.Det(), task.NumNodes())
	}
	if !rt.HealServer(36) {
		t.Fatal("HealServer no-oped")
	}
	rt.Run(60)
	if srv.Det() != cluster.DetOK || !srv.Schedulable() {
		t.Fatalf("healed server not restored: Det=%v", srv.Det())
	}
	rt.Stop()
}

func TestRestartDrainsStalePlacements(t *testing.T) {
	rt, task, srv := detectorFixture(t)
	rt.Run(4)
	rt.PartitionServer(36)
	rt.Run(45) // detector declares dead, fences
	if srv.NumPlacements() != 0 {
		t.Fatal("fence left placements behind")
	}
	// Re-create the stale-placement case a crash/restart race could leave: a
	// placement added while the server is believed dead (healed but not yet
	// cleared by a heartbeat).
	rt.HealServer(36)
	if err := rt.Place(task, srv, cluster.Alloc{Cores: 1, MemoryGB: 1}); err != nil {
		t.Fatal(err)
	}
	srv.SetDown()
	if !rt.RestartServer(36) {
		t.Fatal("RestartServer no-oped")
	}
	if srv.NumPlacements() != 0 {
		t.Fatal("restart did not drain stale placements from a dead server")
	}
	rt.Stop()
}

func TestWorldPrimitivesNoOpInWrongState(t *testing.T) {
	rt, _ := newTestRuntime(t)
	rt.SetManager(&nullManager{rt: rt})
	if rt.RestartServer(0) {
		t.Error("restart of an up server applied")
	}
	if rt.UnslowServer(0) {
		t.Error("unslow of a healthy server applied")
	}
	if rt.HealServer(0) {
		t.Error("heal of an unpartitioned server applied")
	}
	if !rt.SlowServer(0, 0.5) || rt.SlowServer(0, 0.5) {
		t.Error("second slowdown on the same server applied")
	}
	if !rt.CrashServer(0) || rt.CrashServer(0) {
		t.Error("second crash of the same server applied")
	}
	if rt.SlowServer(0, 0.5) || rt.PartitionServer(0) {
		t.Error("slow/partition of a down server applied")
	}
	rt.Stop()
}

func TestDetectorOffByDefault(t *testing.T) {
	rt, _ := newTestRuntime(t)
	if rt.detOpts != nil {
		t.Fatal("detector enabled without opt-in")
	}
	rt.SetManager(&nullManager{rt: rt})
	rt.CrashServer(3)
	rt.Run(600)
	// No detector: the crash is never noticed, Det stays OK.
	if rt.Cl.Servers[3].Det() != cluster.DetOK {
		t.Fatal("Det changed with the detector off")
	}
	rt.Stop()
}

// TestQuasarReadmitsDisplacedServiceWithoutReprofile is the recovery policy
// end to end at core scope: a latency-critical service loses its servers to
// a crash, the detector fences it, and Quasar re-admits it from the cached
// classification signature without re-profiling.
func TestQuasarReadmitsDisplacedServiceWithoutReprofile(t *testing.T) {
	rt, q, u := quasarFixture(t, 61)
	// A sub-tick detection window (dead 2s after the crash) so the service is
	// fully fenced before Quasar's 5s monitor can scale out around the hole:
	// this pins the test to the full-displacement readmit path.
	rt.EnableFailureDetector(DetectorOptions{PeriodSecs: 1, SuspectMissed: 1, DeadMissed: 2})
	w := u.New(workload.Spec{Type: workload.Memcached, Family: -1, MaxNodes: 4})
	task := rt.Submit(w, 0, loadgen.Flat{QPS: w.Target.QPS})
	rt.Run(601)
	if task.NumNodes() == 0 {
		t.Fatal("service never placed")
	}
	for _, pl := range task.Placements() {
		rt.CrashServer(pl.Server.ID) // crashing fences nothing yet: the slice stays as it is
	}
	rt.Run(1200)
	rt.Stop()
	rec := q.Recovery()
	if rec.Displaced < 1 || rec.DisplacedLC < 1 {
		t.Fatalf("no displacement recorded: %+v", rec)
	}
	if rec.ReadmittedLCNoReprofile < 1 {
		t.Fatalf("service not re-admitted from cached signature: %+v", rec)
	}
	if len(rec.ReadmitDelays) != rec.Readmitted {
		t.Fatalf("recovery delay not recorded per re-admission: %+v", rec)
	}
	if task.NumNodes() == 0 || task.Status != StatusRunning {
		t.Fatalf("service not running after recovery: nodes=%d status=%v", task.NumNodes(), task.Status)
	}
}
