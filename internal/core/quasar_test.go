package core

import (
	"testing"

	"quasar/internal/cluster"
	"quasar/internal/loadgen"
	"quasar/internal/workload"
)

// quasarFixture builds a 40-server cluster managed by Quasar with a seeded
// classification library.
func quasarFixture(t testing.TB, seed int64) (*Runtime, *Quasar, *workload.Universe) {
	t.Helper()
	cl, err := cluster.New(cluster.LocalPlatforms(), []int{4, 4, 4, 4, 4, 4, 4, 4, 4, 4})
	if err != nil {
		t.Fatal(err)
	}
	return quasarFixtureOn(cl, seed)
}

// quasarFixtureOn is quasarFixture over a caller-built cluster.
func quasarFixtureOn(cl *cluster.Cluster, seed int64) (*Runtime, *Quasar, *workload.Universe) {
	platforms := cl.Platforms
	rt := NewRuntime(cl, Options{TickSecs: 5, SampleSecs: 60, Seed: seed})
	u := workload.NewUniverse(platforms, seed+1, 3)
	opts := DefaultQuasarOptions()
	opts.Classify.MaxNodes = 32
	q := NewQuasar(rt, opts)
	var lib []*workload.Instance
	for _, tp := range []workload.Type{workload.Hadoop, workload.Spark, workload.Storm,
		workload.Memcached, workload.Cassandra, workload.Webserver, workload.SingleNode} {
		for i := 0; i < 3; i++ {
			lib = append(lib, u.New(workload.Spec{Type: tp, Family: -1, MaxNodes: 4}))
		}
	}
	q.SeedLibrary(lib)
	rt.SetManager(q)
	return rt, q, u
}

func TestQuasarRunsBatchNearTarget(t *testing.T) {
	rt, _, u := quasarFixture(t, 41)
	w := u.New(workload.Spec{Type: workload.Hadoop, Family: -1, MaxNodes: 8, TargetSlack: 1.3})
	task := rt.Submit(w, 0, nil)
	rt.Run(w.Target.CompletionSecs * 3)
	rt.Stop()
	if task.Status != StatusCompleted {
		t.Fatalf("job did not complete: %v (nodes %d)", task.Status, task.NumNodes())
	}
	elapsed := task.DoneAt - task.SubmitAt
	// Quasar should come close to the target (paper: within ~6%); allow
	// generous slack for estimation error plus adaptation latency.
	if elapsed > w.Target.CompletionSecs*1.5 {
		t.Fatalf("completion %.0fs vs target %.0fs", elapsed, w.Target.CompletionSecs)
	}
}

func TestQuasarServiceMeetsQoS(t *testing.T) {
	rt, _, u := quasarFixture(t, 43)
	w := u.New(workload.Spec{Type: workload.Memcached, Family: -1, MaxNodes: 8})
	task := rt.Submit(w, 0, loadgen.Flat{QPS: w.Target.QPS})
	rt.Run(3600)
	rt.Stop()
	if task.Status != StatusRunning {
		t.Fatalf("service status %v", task.Status)
	}
	// After warm-up, QoS should be met most of the time.
	qos := task.QoSFrac.MeanBetween(600, 3600)
	if qos < 0.85 {
		t.Fatalf("QoS met only %.2f of the time", qos)
	}
}

func TestQuasarTracksLoadGrowth(t *testing.T) {
	if testing.Short() {
		t.Skip("load-growth scenario runs ~3s under -race")
	}
	rt, _, u := quasarFixture(t, 47)
	w := u.New(workload.Spec{Type: workload.Webserver, Family: -1, MaxNodes: 8})
	pattern := loadgen.Fluctuating{Min: 0.2 * w.Target.QPS, Max: w.Target.QPS, Period: 3600}
	task := rt.Submit(w, 0, pattern)
	rt.Run(7200)
	rt.Stop()
	qos := task.QoSFrac.MeanBetween(900, 7200)
	if qos < 0.8 {
		t.Fatalf("fluctuating load QoS %.2f", qos)
	}
	// Allocation must have been adjusted at least once (cores vary).
	if task.NumNodes() == 0 {
		t.Fatal("service lost its allocation")
	}
}

func TestQuasarReclaimsIdleResources(t *testing.T) {
	if testing.Short() {
		t.Skip("reclaim scenario runs ~3s under -race")
	}
	rt, _, u := quasarFixture(t, 53)
	w := u.New(workload.Spec{Type: workload.Webserver, Family: -1, MaxNodes: 8})
	// Very low constant load after targets were set high.
	task := rt.Submit(w, 0, loadgen.Flat{QPS: 0.1 * w.Target.QPS})
	rt.Run(600)
	coresEarly := task.TotalCores()
	rt.Run(5400)
	rt.Stop()
	coresLate := task.TotalCores()
	if coresLate > coresEarly {
		t.Fatalf("idle service grew: %d -> %d cores", coresEarly, coresLate)
	}
}

func TestQuasarBestEffortPlacedAndEvictable(t *testing.T) {
	rt, q, u := quasarFixture(t, 59)
	for i := 0; i < 10; i++ {
		be := u.New(workload.Spec{Type: workload.SingleNode, Family: -1, BestEffort: true})
		rt.Submit(be, float64(i), nil)
	}
	rt.Run(60)
	running := 0
	for _, task := range rt.Tasks() {
		if task.Status == StatusRunning {
			running++
		}
	}
	if running < 8 {
		t.Fatalf("only %d best-effort tasks running on an idle cluster", running)
	}
	// A demanding primary workload should be able to displace them.
	w := u.New(workload.Spec{Type: workload.Hadoop, Family: -1, MaxNodes: 8, TargetSlack: 1.2})
	rt.Submit(w, 70, nil)
	rt.Run(1200)
	rt.Stop()
	if rt.Task(w.ID).Status == StatusQueued {
		t.Fatal("primary workload stuck behind best-effort fillers")
	}
	_ = q
}

func TestQuasarAdmissionQueue(t *testing.T) {
	if testing.Short() {
		t.Skip("admission scenario runs ~17s under -race")
	}
	rt, q, u := quasarFixture(t, 61)
	// Saturate the cluster with long services pinned at high load.
	var tasks []*Task
	for i := 0; i < 30; i++ {
		w := u.New(workload.Spec{Type: workload.Memcached, Family: -1, MaxNodes: 4})
		tasks = append(tasks, rt.Submit(w, float64(i)*2, loadgen.Flat{QPS: w.Target.QPS}))
	}
	rt.Run(4000)
	rt.Stop()
	placed, queued := 0, 0
	for _, task := range tasks {
		switch task.Status {
		case StatusRunning:
			placed++
		case StatusQueued, StatusProfiling:
			queued++
		}
	}
	if placed == 0 {
		t.Fatal("nothing placed")
	}
	// Either everything fit, or admission control queued the rest; the
	// scheduler must never overcommit servers.
	for _, srv := range rt.Cl.Servers {
		if srv.UsedCores() > srv.Platform.Cores {
			t.Fatalf("server %d overcommitted", srv.ID)
		}
	}
	_ = q
}

func TestQuasarSingleNodeIPS(t *testing.T) {
	if testing.Short() {
		t.Skip("single-node sweep runs ~4s under -race")
	}
	rt, _, u := quasarFixture(t, 67)
	w := u.New(workload.Spec{Type: workload.SingleNode, Family: -1, TargetSlack: 1.5})
	w.Genome.Work = 5000
	task := rt.Submit(w, 0, nil)
	rt.Run(50000)
	rt.Stop()
	if task.Status != StatusCompleted {
		t.Fatalf("single-node job not completed: %v", task.Status)
	}
	if task.NumNodes() != 0 {
		t.Fatal("placements linger after completion")
	}
}

func TestQuasarTunesHadoopConfig(t *testing.T) {
	rt, _, u := quasarFixture(t, 71)
	w := u.New(workload.Spec{Type: workload.Hadoop, Family: -1, MaxNodes: 8, TargetSlack: 1.3})
	def := workload.DefaultHadoopConfig()
	rt.Submit(w, 0, nil)
	rt.Run(600)
	rt.Stop()
	if w.Config == nil {
		t.Fatal("config removed")
	}
	if *w.Config == def {
		t.Fatal("Quasar did not tune the framework configuration")
	}
	if w.Config.MappersPerNode <= 0 || w.Config.HeapsizeGB <= 0 {
		t.Fatalf("invalid tuned config %+v", w.Config)
	}
}
