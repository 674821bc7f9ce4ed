package core

import (
	"bytes"
	"reflect"
	"testing"

	"quasar/internal/chaos"
	"quasar/internal/cluster"
	"quasar/internal/loadgen"
	"quasar/internal/obs"
	"quasar/internal/workload"
)

// midFaultRun executes one full failover-under-faults run: a traced Quasar
// cluster with the detector on and a fault plan armed, a service partially
// displaced by a crash, a master failover through snapshot bytes while the
// episode is still open and a server is still dead, then continuation
// through more injected faults. It returns the snapshot bytes, the full
// JSONL trace, and the recovery stats at the horizon.
func midFaultRun(t *testing.T) ([]byte, []byte, RecoveryStats) {
	t.Helper()
	rt, q, u := quasarFixture(t, 97)
	tr := obs.New(rt.Eng.Now)
	q.SetTracer(tr)
	rt.EnableFailureDetector(DetectorOptions{PeriodSecs: 5, SuspectMissed: 2, DeadMissed: 4})
	plan := &chaos.Plan{Name: "mid-fault", Faults: []chaos.FaultSpec{
		{Kind: chaos.KindSlowdown, Server: chaos.AnyServer, At: 200, DurationSecs: 400, Severity: 0.5},
		{Kind: chaos.KindPartition, Server: chaos.AnyServer, At: 600, DurationSecs: 200},
		{Kind: chaos.KindCrash, Server: chaos.AnyServer, At: 900, DurationSecs: 600},
	}}
	inj, err := chaos.NewInjector(rt.Eng, rt, plan, rt.RNG.Stream("chaos"))
	if err != nil {
		t.Fatal(err)
	}
	inj.Start()

	svc := u.New(workload.Spec{Type: workload.Memcached, Family: -1, MaxNodes: 4})
	svcTask := rt.Submit(svc, 0, loadgen.Flat{QPS: svc.Target.QPS})
	job := u.New(workload.Spec{Type: workload.Hadoop, Family: 0, MaxNodes: 4, TargetSlack: 1.4,
		Dataset: workload.Dataset{Name: "mf", SizeGB: 20, WorkMult: 2, MemMult: 1}})
	rt.Submit(job, 5, nil)

	// Crash one of the service's servers; the detector declares it dead
	// ~20s later and fences, opening a partial-displacement episode.
	rt.Run(250)
	if svcTask.NumNodes() == 0 {
		t.Fatal("service never placed")
	}
	crashed := svcTask.Placements()[0].Server.ID
	rt.CrashServer(crashed)
	// Detection fences at t=270 (4 missed beats); failing over at 272 lands
	// inside the open recovery episode, before the next monitor tick can
	// close it.
	rt.Run(272)

	if rt.Cl.Servers[crashed].Det() != cluster.DetDead {
		t.Fatalf("server %d not declared dead by failover time", crashed)
	}
	preRec := q.Recovery()
	if preRec.Displaced < 1 {
		t.Fatalf("no displacement in flight at failover: %+v", preRec)
	}

	data, err := q.MarshalSnapshot()
	if err != nil {
		t.Fatal(err)
	}

	// Failover: a standby restores the snapshot and takes over the same
	// runtime, dead server and open recovery episode included.
	standby := NewQuasar(rt, q.opts)
	if err := standby.UnmarshalSnapshot(data); err != nil {
		t.Fatal(err)
	}
	standby.SetTracer(tr)
	if got := standby.Recovery(); !reflect.DeepEqual(got, preRec) {
		t.Fatalf("recovery stats did not survive the snapshot:\n pre:  %+v\n post: %+v", preRec, got)
	}
	redata, err := standby.MarshalSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, redata) {
		t.Fatalf("snapshot not idempotent across restore: %d vs %d bytes", len(data), len(redata))
	}
	rt.SetManager(standby)

	rt.Run(2200)
	rt.Stop()
	if got := inj.Stats().Total(); got != 3 {
		t.Fatalf("injector applied %d faults, want all 3 (continuation broken?)", got)
	}

	var buf bytes.Buffer
	if err := obs.WriteJSONL(&buf, tr); err != nil {
		t.Fatal(err)
	}
	return data, buf.Bytes(), standby.Recovery()
}

// TestSnapshotMidFaultRoundTrip snapshots the manager while a server is dead
// and a displaced workload is mid-recovery, restores into a standby, and
// checks the whole run — failover included — is deterministic: a second
// identical run produces byte-identical snapshot bytes and a byte-identical
// subsequent trace.
func TestSnapshotMidFaultRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the failover-under-faults scenario twice")
	}
	snapA, traceA, recA := midFaultRun(t)
	snapB, traceB, recB := midFaultRun(t)
	if !bytes.Equal(snapA, snapB) {
		t.Error("mid-fault snapshot bytes differ between identical runs")
	}
	if !bytes.Equal(traceA, traceB) {
		t.Error("post-failover trace differs between identical runs")
	}
	if !reflect.DeepEqual(recA, recB) {
		t.Errorf("recovery stats diverged: %+v vs %+v", recA, recB)
	}
	if !bytes.Contains(snapA, []byte(`"displaced":true`)) {
		t.Error("snapshot does not carry the in-flight displacement episode")
	}
}
