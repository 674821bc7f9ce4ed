package core

import (
	"testing"

	"quasar/internal/cluster"
	"quasar/internal/loadgen"
	"quasar/internal/workload"
)

// partitionFixture builds a Quasar manager with partitioning toggled.
func partitionFixture(t *testing.T, enable bool, seed int64) (*Runtime, *Quasar, *workload.Universe) {
	t.Helper()
	rt, q, u := quasarFixture(t, seed)
	opts := q.opts
	opts.EnablePartitioning = enable
	// Freeze adaptation so placements stay put and the partitioning
	// decisions themselves are observable.
	opts.DisableAdaptation = true
	q2 := NewQuasar(rt, opts)
	q2.SeedLibrary(u.Library([]workload.Type{workload.Hadoop, workload.Memcached, workload.SingleNode}, 2))
	rt.SetManager(q2)
	return rt, q2, u
}

// TestPartitioningEnablesIsolationUnderContention: a cache-sensitive
// service colocated with cache-hungry neighbours gets LLC isolation when
// partitioning is on, and its experienced pressure drops.
func TestPartitioningEnablesIsolationUnderContention(t *testing.T) {
	rt, q, u := partitionFixture(t, true, 401)
	svc := u.New(workload.Spec{Type: workload.Memcached, Family: 0, MaxNodes: 2})
	rt.Submit(svc, 0, loadgen.Flat{QPS: 0.7 * svc.Target.QPS})
	rt.Run(400)

	// Force a hostile colocation on one of the service's servers.
	task := rt.Task(svc.ID)
	if task.NumNodes() == 0 {
		t.Fatal("service not placed")
	}
	srv := rt.Cl.Servers[task.Servers()[0]]
	var hot cluster.ResVec
	hot[cluster.ResLLC] = 0.9
	hot[cluster.ResNetBW] = 0.9
	srv.SetProbe(hot) // a cache/network-hungry neighbour
	// Make Quasar's estimate of the service's tolerance clearly violated.
	if st := q.state[svc.ID]; st != nil {
		st.est.Tol[cluster.ResLLC] = 0.1
		st.est.Tol[cluster.ResNetBW] = 0.1
	}
	rt.Run(500)
	rt.Stop()

	iso := srv.Isolation()
	if iso[cluster.ResLLC] <= 0 {
		t.Fatal("partitioning did not isolate the contended cache")
	}
	// The experienced pressure is attenuated accordingly.
	p := srv.PressureOn(svc.ID)
	if p[cluster.ResLLC] >= hot[cluster.ResLLC] {
		t.Fatalf("pressure not attenuated: %v", p[cluster.ResLLC])
	}
}

// TestPartitioningDisabledLeavesServersAlone.
func TestPartitioningDisabledLeavesServersAlone(t *testing.T) {
	rt, _, u := partitionFixture(t, false, 403)
	svc := u.New(workload.Spec{Type: workload.Memcached, Family: 0, MaxNodes: 2})
	rt.Submit(svc, 0, loadgen.Flat{QPS: 0.7 * svc.Target.QPS})
	rt.Run(600)
	rt.Stop()
	for _, srv := range rt.Cl.Servers {
		if srv.Isolation() != (cluster.ResVec{}) {
			t.Fatal("isolation configured with partitioning disabled")
		}
	}
}

// TestPartitioningReleasedWhenUnneeded: isolation is removed once the
// contention is gone.
func TestPartitioningReleasedWhenUnneeded(t *testing.T) {
	rt, q, u := partitionFixture(t, true, 405)
	svc := u.New(workload.Spec{Type: workload.Memcached, Family: 0, MaxNodes: 2})
	rt.Submit(svc, 0, loadgen.Flat{QPS: 0.7 * svc.Target.QPS})
	rt.Run(400)
	task := rt.Task(svc.ID)
	srv := rt.Cl.Servers[task.Servers()[0]]
	var hot cluster.ResVec
	hot[cluster.ResLLC] = 0.9
	srv.SetProbe(hot)
	if st := q.state[svc.ID]; st != nil {
		st.est.Tol[cluster.ResLLC] = 0.1
	}
	rt.Run(500)
	if srv.Isolation()[cluster.ResLLC] <= 0 {
		t.Fatal("isolation never enabled")
	}
	srv.SetProbe(cluster.ResVec{}) // the aggressor leaves
	rt.Run(700)
	rt.Stop()
	if srv.Isolation()[cluster.ResLLC] != 0 {
		t.Fatal("isolation not released after the aggressor left")
	}
}
