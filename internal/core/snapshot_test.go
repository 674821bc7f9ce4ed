package core

import (
	"bytes"
	"reflect"
	"testing"

	"quasar/internal/loadgen"
	"quasar/internal/workload"
)

// TestSnapshotRestoreFailover simulates a master failover: a running
// cluster's manager state is serialized, a fresh manager is built against
// the same runtime (workloads keep running, as in a real failover), the
// snapshot is restored, and management continues — monitoring, adaptation,
// and new submissions all work.
func TestSnapshotRestoreFailover(t *testing.T) {
	rt, q, u := quasarFixture(t, 211)
	job := u.New(workload.Spec{Type: workload.Hadoop, Family: 0, MaxNodes: 4, TargetSlack: 1.2,
		Dataset: workload.Dataset{Name: "ft", SizeGB: 20, WorkMult: 3, MemMult: 1}})
	jobTask := rt.Submit(job, 0, nil)
	svc := u.New(workload.Spec{Type: workload.Webserver, Family: 0, MaxNodes: 4})
	svcTask := rt.Submit(svc, 10, loadgen.Flat{QPS: 0.7 * svc.Target.QPS})
	rt.Run(600)

	if jobTask.Status != StatusRunning || svcTask.Status != StatusRunning {
		t.Fatalf("tasks not running before failover: %v / %v", jobTask.Status, svcTask.Status)
	}

	// Serialize the master state.
	data, err := q.MarshalSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(data) < 100 {
		t.Fatal("suspiciously small snapshot")
	}

	// The master dies; a hot standby takes over the same cluster.
	standby := NewQuasar(rt, q.opts)
	if err := standby.UnmarshalSnapshot(data); err != nil {
		t.Fatal(err)
	}
	rt.SetManager(standby)

	// The standby must keep managing: the job completes near target and
	// the service keeps meeting QoS.
	rt.Run(job.Target.CompletionSecs * 2.5)
	if jobTask.Status != StatusCompleted {
		t.Fatalf("job did not complete after failover: %v", jobTask.Status)
	}
	if elapsed := jobTask.DoneAt - jobTask.SubmitAt; elapsed > 1.6*job.Target.CompletionSecs {
		t.Fatalf("failover degraded the job: %.0fs vs target %.0fs", elapsed, job.Target.CompletionSecs)
	}
	if qos := svcTask.QoSFrac.MeanBetween(900, 1e18); qos < 0.8 {
		t.Fatalf("service QoS after failover: %.2f", qos)
	}

	// New submissions are handled by the standby.
	w2 := u.New(workload.Spec{Type: workload.SingleNode, Family: -1, TargetSlack: 1.3})
	w2.Genome.Work = 500
	rt2 := rt // same runtime continues
	task2 := rt2.Submit(w2, rt.Eng.Now()+10, nil)
	rt.Run(rt.Eng.Now() + 10000)
	rt.Stop()
	if task2.Status != StatusCompleted {
		t.Fatalf("post-failover submission stuck: %v", task2.Status)
	}
}

// TestSnapshotRoundTripPreservesEstimates: estimates restored from a
// snapshot must predict identically.
func TestSnapshotRoundTripPreservesEstimates(t *testing.T) {
	rt, q, u := quasarFixture(t, 223)
	w := u.New(workload.Spec{Type: workload.Memcached, Family: -1, MaxNodes: 4})
	rt.Submit(w, 0, loadgen.Flat{QPS: 0.5 * w.Target.QPS})
	rt.Run(400) // past the stateful-service profiling delay
	rt.Stop()

	st := q.state[w.ID]
	if st == nil || st.est == nil {
		t.Fatal("no estimates to snapshot")
	}
	before := st.est.NodePerf(9, rt.Cl.Servers[36].Placement(w.ID).Alloc, rt.Cl.Servers[0].PressureOn(""))

	data, err := q.MarshalSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	standby := NewQuasar(rt, q.opts)
	if err := standby.UnmarshalSnapshot(data); err != nil {
		t.Fatal(err)
	}
	st2 := standby.state[w.ID]
	if st2 == nil || st2.est == nil {
		t.Fatal("estimates lost in round trip")
	}
	after := st2.est.NodePerf(9, rt.Cl.Servers[36].Placement(w.ID).Alloc, rt.Cl.Servers[0].PressureOn(""))
	if before != after {
		t.Fatalf("estimates diverged: %v vs %v", before, after)
	}
	if st2.est.Beta() != st.est.Beta() {
		t.Fatal("beta lost in round trip")
	}
}

// TestRestoreRejectsUnknownTasks: a snapshot naming tasks the runtime does
// not know must be rejected, not silently mangled.
func TestRestoreRejectsUnknownTasks(t *testing.T) {
	rt, q, u := quasarFixture(t, 227)
	w := u.New(workload.Spec{Type: workload.SingleNode, Family: -1, TargetSlack: 1.3})
	rt.Submit(w, 0, nil)
	rt.Run(60)
	rt.Stop()
	snap := q.Snapshot()
	snap.Tasks = append(snap.Tasks, quasarTaskSnapshot{ID: "ghost-0001"})

	other, err := buildCleanQuasar(t)
	if err != nil {
		t.Fatal(err)
	}
	if err := other.Restore(snap); err == nil {
		t.Fatal("snapshot with unknown task accepted")
	}
}

// TestRestoreDropsStateOfTasksCompletedSince: a standby restoring a
// snapshot taken while a job ran, after the job has completed and been
// retired, restores without error and keeps no state for the finished job,
// so its next snapshot matches the primary's.
func TestRestoreDropsStateOfTasksCompletedSince(t *testing.T) {
	rt, q, u := quasarFixture(t, 231)
	w := u.New(workload.Spec{Type: workload.SingleNode, Family: -1, TargetSlack: 1.3})
	w.Genome.Work = 500
	task := rt.Submit(w, 0, nil)
	rt.Run(30)
	if task.Status != StatusRunning {
		t.Fatalf("job is %v at t=30, want running", task.Status)
	}
	data, err := q.MarshalSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	rt.Run(600)
	rt.Stop()
	if task.Status != StatusCompleted || rt.Task(w.ID) != nil {
		t.Fatalf("job is %v at t=600 and live=%v, want completed and retired", task.Status, rt.Task(w.ID) != nil)
	}

	standby := NewQuasar(rt, q.opts)
	if err := standby.UnmarshalSnapshot(data); err != nil {
		t.Fatalf("restore after the job completed: %v", err)
	}
	if _, ok := standby.state[w.ID]; ok {
		t.Error("standby kept manager state for a completed job")
	}
	if got, want := standby.Snapshot().Tasks, q.Snapshot().Tasks; !reflect.DeepEqual(got, want) {
		t.Errorf("standby snapshots tasks %+v, primary %+v", got, want)
	}
}

func buildCleanQuasar(t *testing.T) (*Quasar, error) {
	t.Helper()
	rt, q, _ := quasarFixture(t, 229)
	_ = rt
	return q, nil
}

// midRunQuasar is a manager mid-run: a batch job and a service placed and
// running, with the runtime stopped between ticks.
func midRunQuasar(t testing.TB) *Quasar {
	t.Helper()
	rt, q, u := quasarFixture(t, 211)
	job := u.New(workload.Spec{Type: workload.Hadoop, Family: 0, MaxNodes: 4, TargetSlack: 1.2,
		Dataset: workload.Dataset{Name: "ft", SizeGB: 20, WorkMult: 3, MemMult: 1}})
	rt.Submit(job, 0, nil)
	svc := u.New(workload.Spec{Type: workload.Webserver, Family: 0, MaxNodes: 4})
	rt.Submit(svc, 10, loadgen.Flat{QPS: 0.7 * svc.Target.QPS})
	rt.Run(600)
	rt.Stop()
	return q
}

// TestRejectedRestoreLeavesStateUntouched: a snapshot that fails any check
// — an unknown task, an estimate off the engine's grids, an engine state
// the engine cannot hold — is rejected without changing a byte of the
// manager's own snapshot.
func TestRejectedRestoreLeavesStateUntouched(t *testing.T) {
	q := midRunQuasar(t)
	before, err := q.MarshalSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if n := len(q.Snapshot().Tasks); n < 2 {
		t.Fatalf("fixture has %d tasks, want at least 2", n)
	}
	for _, tc := range []struct {
		name   string
		tamper func(*QuasarSnapshot)
	}{
		{"unknown task", func(s *QuasarSnapshot) { s.Tasks[len(s.Tasks)-1].ID = "ghost-0001" }},
		{"estimate off grid", func(s *QuasarSnapshot) {
			for i := range s.Tasks {
				if s.Tasks[i].Est != nil {
					s.Tasks[i].Est.SULog = s.Tasks[i].Est.SULog[:1]
				}
			}
		}},
		{"engine axes", func(s *QuasarSnapshot) { s.Engine.Axes = s.Engine.Axes[:2] }},
	} {
		snap := q.Snapshot()
		tc.tamper(snap)
		if err := q.Restore(snap); err == nil {
			t.Fatalf("%s: tampered snapshot accepted", tc.name)
		}
		after, err := q.MarshalSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(before, after) {
			t.Fatalf("%s: rejected restore changed the manager's snapshot (%d -> %d bytes)", tc.name, len(before), len(after))
		}
	}
	if err := q.Restore(nil); err == nil {
		t.Fatal("nil snapshot accepted")
	}
}
