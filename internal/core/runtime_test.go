package core

import (
	"fmt"
	"math"
	"testing"

	"quasar/internal/cluster"
	"quasar/internal/loadgen"
	"quasar/internal/perfmodel"
	"quasar/internal/workload"
)

// nullManager places every workload on fixed servers immediately.
type nullManager struct {
	rt     *Runtime
	alloc  cluster.Alloc
	server int
	nodes  int
}

func (m *nullManager) Name() string { return "null" }

func (m *nullManager) OnSubmit(t *Task) {
	for i := 0; i < m.nodes; i++ {
		srv := m.rt.Cl.Servers[(m.server+i)%len(m.rt.Cl.Servers)]
		if err := m.rt.Place(t, srv, m.alloc); err != nil {
			panic(err)
		}
	}
}

func (m *nullManager) OnComplete(t *Task) {}
func (m *nullManager) OnEvicted(t *Task)  {}
func (m *nullManager) OnTick(now float64) {}

func newTestRuntime(t testing.TB) (*Runtime, *workload.Universe) {
	t.Helper()
	platforms := cluster.LocalPlatforms()
	cl, err := cluster.New(platforms, []int{4, 4, 4, 4, 4, 4, 4, 4, 4, 4})
	if err != nil {
		t.Fatal(err)
	}
	rt := NewRuntime(cl, Options{TickSecs: 5, SampleSecs: 60, Seed: 3})
	u := workload.NewUniverse(platforms, 31, 3)
	return rt, u
}

func TestBatchRunsToCompletion(t *testing.T) {
	rt, u := newTestRuntime(t)
	w := u.New(workload.Spec{Type: workload.SingleNode, Family: -1})
	w.Genome.Work = 1000
	m := &nullManager{rt: rt, alloc: cluster.Alloc{Cores: 4, MemoryGB: 8}, server: 36, nodes: 1}
	rt.SetManager(m)
	task := rt.Submit(w, 0, nil)
	rt.Run(100000)

	if task.Status != StatusCompleted {
		t.Fatalf("status %v, want completed", task.Status)
	}
	// Completion time should equal work / true rate at that allocation.
	srv := rt.Cl.Servers[36]
	rate := w.NodeRate(srv.Platform, cluster.Alloc{Cores: 4, MemoryGB: 8}, cluster.ResVec{})
	wantSecs := 1000 / rate
	got := task.DoneAt - task.StartAt
	if math.Abs(got-wantSecs) > wantSecs*0.1+10 {
		t.Fatalf("completion %.0fs, want ~%.0fs", got, wantSecs)
	}
	// Resources released.
	if srv.UsedCores() != 0 {
		t.Fatal("resources not released after completion")
	}
}

func TestServiceServesLoad(t *testing.T) {
	rt, u := newTestRuntime(t)
	w := u.New(workload.Spec{Type: workload.Memcached, Family: -1, MaxNodes: 4})
	m := &nullManager{rt: rt, alloc: cluster.Alloc{Cores: 12, MemoryGB: 24}, server: 36, nodes: 2}
	rt.SetManager(m)
	srv := rt.Cl.Servers[36]
	_ = srv
	task := rt.Submit(w, 0, loadgen.Flat{QPS: w.Target.QPS * 0.5})
	rt.Run(600)
	rt.Stop()

	if task.LastAchievedQPS <= 0 {
		t.Fatal("service served nothing")
	}
	if math.Abs(task.LastAchievedQPS-w.Target.QPS*0.5) > 1 {
		t.Fatalf("achieved %.0f, offered %.0f", task.LastAchievedQPS, w.Target.QPS*0.5)
	}
	if task.QoSFrac.Len() == 0 {
		t.Fatal("service QoS series not recorded")
	}
}

func TestServiceSheddingUnderOverload(t *testing.T) {
	rt, u := newTestRuntime(t)
	w := u.New(workload.Spec{Type: workload.Memcached, Family: -1, MaxNodes: 4})
	// One tiny node: will saturate.
	m := &nullManager{rt: rt, alloc: cluster.Alloc{Cores: 1, MemoryGB: 2}, server: 0, nodes: 1}
	rt.SetManager(m)
	task := rt.Submit(w, 0, loadgen.Flat{QPS: w.Target.QPS * 10})
	rt.Run(300)
	rt.Stop()

	if task.LastAchievedQPS >= task.LastOfferedQPS {
		t.Fatal("overloaded service should shed load")
	}
	if task.QoSFrac.Mean() > 0.5 {
		t.Fatalf("overloaded service met QoS %v of the time", task.QoSFrac.Mean())
	}
}

func TestInterferenceSlowsNeighbour(t *testing.T) {
	rt, u := newTestRuntime(t)
	w1 := u.New(workload.Spec{Type: workload.SingleNode, Family: -1})
	w1.Genome.Work = 1e9 // effectively endless
	w2 := u.New(workload.Spec{Type: workload.SingleNode, Family: -1})
	w2.Genome.Work = 1e9
	m := &nullManager{rt: rt, alloc: cluster.Alloc{Cores: 8, MemoryGB: 12}, server: 36, nodes: 1}
	rt.SetManager(m)
	t1 := rt.Submit(w1, 0, nil)
	rt.Run(50)
	soloRate := rt.TrueRate(t1)
	t2 := rt.Submit(w2, 60, nil)
	rt.Run(120)
	rt.Stop()
	colocRate := rt.TrueRate(t1)
	if colocRate >= soloRate {
		t.Fatalf("colocation did not slow the neighbour: %.3f -> %.3f", soloRate, colocRate)
	}
	_ = t2
}

func TestEvictOnlyBestEffort(t *testing.T) {
	rt, u := newTestRuntime(t)
	w := u.New(workload.Spec{Type: workload.SingleNode, Family: -1})
	w.Genome.Work = 1e9
	m := &nullManager{rt: rt, alloc: cluster.Alloc{Cores: 2, MemoryGB: 4}, server: 0, nodes: 1}
	rt.SetManager(m)
	task := rt.Submit(w, 0, nil)
	rt.Run(10)
	if tier := task.Placements()[0].Tier; tier != cluster.Burstable || tier.Yields() {
		t.Fatalf("targeted single-node placement has tier %d, want a Burstable that does not yield", tier)
	}
	if err := rt.Evict(w.ID); err == nil {
		t.Fatal("evicted a non-best-effort task")
	}
	be := u.New(workload.Spec{Type: workload.SingleNode, Family: -1, BestEffort: true})
	be.Genome.Work = 1e9
	m.server = 1 // server 0 is full with w's placement
	beTask := rt.Submit(be, 20, nil)
	rt.Run(30)
	if tier := beTask.Placements()[0].Tier; !tier.Yields() {
		t.Fatalf("best-effort placement has tier %d, which does not yield", tier)
	}
	if err := rt.Evict(be.ID); err != nil {
		t.Fatal(err)
	}
	if rt.Task(be.ID).Status != StatusQueued {
		t.Fatal("evicted task not queued")
	}
	rt.Stop()
}

func TestMeasuredPerfTracksTruth(t *testing.T) {
	rt, u := newTestRuntime(t)
	w := u.New(workload.Spec{Type: workload.SingleNode, Family: -1})
	w.Genome.Work = 1e9
	m := &nullManager{rt: rt, alloc: cluster.Alloc{Cores: 4, MemoryGB: 8}, server: 36, nodes: 1}
	rt.SetManager(m)
	task := rt.Submit(w, 0, nil)
	rt.Run(20)
	rt.Stop()
	truth := rt.TrueRate(task)
	sum := 0.0
	const n = 200
	for i := 0; i < n; i++ {
		sum += rt.MeasuredPerf(task)
	}
	if mean := sum / n; math.Abs(mean-truth)/truth > 0.05 {
		t.Fatalf("measured mean %.3f vs truth %.3f", mean, truth)
	}
}

func TestUtilizationSampling(t *testing.T) {
	rt, u := newTestRuntime(t)
	w := u.New(workload.Spec{Type: workload.SingleNode, Family: -1})
	w.Genome.Work = 1e9
	w.Genome.Parallelism = 4
	m := &nullManager{rt: rt, alloc: cluster.Alloc{Cores: 8, MemoryGB: 12}, server: 36, nodes: 1}
	rt.SetManager(m)
	rt.Submit(w, 0, nil)
	rt.Run(300)
	rt.Stop()
	if len(rt.CPUHeat.Times) < 4 {
		t.Fatalf("only %d samples", len(rt.CPUHeat.Times))
	}
	// Allocated > used because parallelism 4 < 8 allocated cores.
	if rt.AllocSeries.Vals[len(rt.AllocSeries.Vals)-1] <= rt.UsedSeries.Vals[len(rt.UsedSeries.Vals)-1] {
		t.Fatal("allocated share should exceed used share for a low-parallelism job")
	}
}

func TestResizeChangesRate(t *testing.T) {
	rt, u := newTestRuntime(t)
	w := u.New(workload.Spec{Type: workload.SingleNode, Family: -1})
	w.Genome.Work = 1e9
	w.Genome.Parallelism = 0
	m := &nullManager{rt: rt, alloc: cluster.Alloc{Cores: 2, MemoryGB: 4}, server: 36, nodes: 1}
	rt.SetManager(m)
	task := rt.Submit(w, 0, nil)
	rt.Run(10)
	before := rt.TrueRate(task)
	if err := rt.Resize(task, rt.Cl.Servers[36], cluster.Alloc{Cores: 12, MemoryGB: 24}); err != nil {
		t.Fatal(err)
	}
	after := rt.TrueRate(task)
	rt.Stop()
	if after <= before {
		t.Fatalf("resize up did not speed up: %.3f -> %.3f", before, after)
	}
}

func TestRemoveNodeScaleIn(t *testing.T) {
	rt, u := newTestRuntime(t)
	w := u.New(workload.Spec{Type: workload.Hadoop, Family: -1, MaxNodes: 4})
	w.Genome.Work = 1e9
	m := &nullManager{rt: rt, alloc: cluster.Alloc{Cores: 4, MemoryGB: 8}, server: 30, nodes: 3}
	rt.SetManager(m)
	task := rt.Submit(w, 0, nil)
	rt.Run(10)
	if task.NumNodes() != 3 {
		t.Fatalf("%d nodes", task.NumNodes())
	}
	id := task.Placements()[0].Server.ID
	if err := rt.RemoveNode(task, id); err != nil {
		t.Fatal(err)
	}
	if task.NumNodes() != 2 {
		t.Fatal("scale-in failed")
	}
	if err := rt.RemoveNode(task, id); err == nil {
		t.Fatal("double remove succeeded")
	}
	rt.Stop()
}

var _ = perfmodel.Analytics

// TestBatchTickAllocatesNothing: a tick of a running batch task whose
// ground-truth rate is memoised advances progress and refreshes its
// placements' activity without allocating, so a per-tick history cannot
// come back unnoticed. The ticks run inside one measured call: AllocsPerRun
// divides by the run count in integers, which would round a slice's
// amortised growth away.
func TestBatchTickAllocatesNothing(t *testing.T) {
	rt, u := newTestRuntime(t)
	w := u.New(workload.Spec{Type: workload.Hadoop, Family: -1, MaxNodes: 4})
	w.Genome.Work = 1e15
	rt.SetManager(&nullManager{rt: rt, alloc: cluster.Alloc{Cores: 4, MemoryGB: 8}, server: 30, nodes: 2})
	task := rt.Submit(w, 0, nil)
	rt.Run(20)
	rt.Stop()
	if task.Status != StatusRunning || !rt.truthValid(task) {
		t.Fatalf("status %v, truth memo valid %v: want a running task on a memo hit", task.Status, rt.truthValid(task))
	}
	before := task.Progress
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < 1000; i++ {
			rt.tickBatch(task, 20, rt.TickSecs())
		}
	})
	if task.Progress <= before || !rt.truthValid(task) {
		t.Fatal("the measured tick did not advance progress on a memo hit")
	}
	if allocs != 0 { //lint:allow(floatcmp) an exact count
		t.Fatalf("1000 batch ticks allocate %v times, want 0", allocs)
	}
}

// TestSubmitKeepsServiceHistoryOnlyForServices: Submit gives a task a QoS
// series and a p99 histogram by class, not tier. Latency-critical tasks, a
// best-effort one included, get both and fill them; analytics and
// single-node tasks, targeted or best-effort, get neither, and their ticks
// still allocate nothing.
func TestSubmitKeepsServiceHistoryOnlyForServices(t *testing.T) {
	rt, u := newTestRuntime(t)
	rt.SetManager(&nullManager{rt: rt, alloc: cluster.Alloc{Cores: 2, MemoryGB: 4}, server: 36, nodes: 1})
	var services, batch []*Task
	for _, spec := range []workload.Spec{
		{Type: workload.Memcached, Family: -1, MaxNodes: 4},
		{Type: workload.Webserver, Family: -1, BestEffort: true},
		{Type: workload.Hadoop, Family: -1, MaxNodes: 4},
		{Type: workload.SingleNode, Family: -1},
		{Type: workload.SingleNode, Family: -1, BestEffort: true},
		{Type: workload.Spark, Family: -1, BestEffort: true},
	} {
		w := u.New(spec)
		w.Genome.Work = 1e15
		if w.Type.Class() == perfmodel.LatencyCritical {
			services = append(services, rt.Submit(w, 0, loadgen.Flat{QPS: 100}))
		} else {
			batch = append(batch, rt.Submit(w, 0, nil))
		}
	}
	rt.Run(700)
	rt.Stop()
	for _, task := range services {
		if task.Status != StatusRunning || task.QoSFrac == nil || task.LatencyDist == nil {
			t.Fatalf("%s (tier %v): status %v, QoS series %v, p99 histogram %v: want a running service with both",
				task.W.ID, task.W.Tier(), task.Status, task.QoSFrac != nil, task.LatencyDist != nil)
		}
		if task.QoSFrac.Len() == 0 || task.LatencyDist.N() == 0 {
			t.Fatalf("%s: %d QoS points and %d p99 samples after 700 s", task.W.ID, task.QoSFrac.Len(), task.LatencyDist.N())
		}
	}
	for _, task := range batch {
		if task.Status != StatusRunning || task.QoSFrac != nil || task.LatencyDist != nil {
			t.Fatalf("%s (tier %v): status %v, QoS series %v, p99 histogram %v: want a running task with neither",
				task.W.ID, task.W.Tier(), task.Status, task.QoSFrac != nil, task.LatencyDist != nil)
		}
		allocs := testing.AllocsPerRun(1, func() {
			for i := 0; i < 1000; i++ {
				rt.tickBatch(task, 700, rt.TickSecs())
			}
		})
		if allocs != 0 { //lint:allow(floatcmp) an exact count
			t.Fatalf("%s: 1000 ticks allocate %v times, want 0", task.W.ID, allocs)
		}
	}
}

// TestLatencyWarmupCountsFromFirstStart: the p99 histogram skips the 600 s
// after a service's first placement only. A displaced service that is
// re-admitted keeps feeding it, so the tail of a displacement reaches the
// distribution.
func TestLatencyWarmupCountsFromFirstStart(t *testing.T) {
	rt, u := newTestRuntime(t)
	w := u.New(workload.Spec{Type: workload.Memcached, Family: -1, MaxNodes: 4})
	m := &nullManager{rt: rt, alloc: cluster.Alloc{Cores: 12, MemoryGB: 24}, server: 36, nodes: 1}
	rt.SetManager(m)
	task := rt.Submit(w, 0, loadgen.Flat{QPS: w.Target.QPS * 0.5})
	rt.Run(700)
	before := task.LatencyDist.N()
	if before == 0 {
		t.Fatal("no p99 sample recorded 700 s after the first placement")
	}
	srv := rt.Cl.Servers[36]
	if d := rt.fence(srv, "test"); len(d) != 1 || task.Status != StatusQueued {
		t.Fatalf("fence displaced %d tasks, status %v: want the service queued", len(d), task.Status)
	}
	if err := rt.Place(task, srv, m.alloc); err != nil {
		t.Fatal(err)
	}
	if task.StartAt != 700 || task.FirstStartAt != 0 { //lint:allow(floatcmp) sim-clock instants set from Eng.Now
		t.Fatalf("StartAt %v, FirstStartAt %v: want the re-admission at 700 and the first start at 0", task.StartAt, task.FirstStartAt)
	}
	rt.Run(800)
	rt.Stop()
	if task.LatencyDist.N() <= before {
		t.Fatal("no p99 sample recorded in the 100 s after the re-admission")
	}
}

// BenchmarkTickHistory times one tick — the runtime's sweep, Quasar's
// OnTick and the proactive probe's share — over a fixed live set of six
// services and two endless single-node jobs, behind a history of 0 or 10 000
// completed best-effort tasks. A tick's cost should follow the live set, not
// the history.
func BenchmarkTickHistory(b *testing.B) {
	for _, history := range []int{0, 10000} {
		b.Run(fmt.Sprintf("completed=%d", history), func(b *testing.B) {
			rt, _, u := quasarFixture(b, 61)
			// The live set is minted first, so both cases run the same
			// workloads.
			var live []*workload.Instance
			for _, tp := range []workload.Type{workload.Memcached, workload.Webserver, workload.Cassandra, workload.SingleNode} {
				for i := 0; i < 2; i++ {
					w := u.New(workload.Spec{Type: tp, Family: -1, MaxNodes: 2})
					w.Genome.Work = 1e12
					live = append(live, w)
				}
			}
			// Waves of 100 one-tick jobs, one wave per tick: what does not
			// fit waits in the queue and drains as earlier waves complete.
			for i := 0; i < history; i++ {
				w := u.New(workload.Spec{Type: workload.SingleNode, Family: -1, BestEffort: true})
				w.Genome.Work = 1
				rt.Submit(w, float64(i/100)*rt.TickSecs()+1, nil)
			}
			at := float64(history/100)*rt.TickSecs() + 10
			rt.Run(at)
			for _, w := range live {
				var load loadgen.Pattern
				if w.Type.Class() == perfmodel.LatencyCritical {
					load = loadgen.Flat{QPS: w.Target.QPS * 0.5}
				}
				rt.Submit(w, at, load)
			}
			rt.Run(at + 300)
			done, running := 0, 0
			for _, t := range rt.Tasks() {
				switch t.Status {
				case StatusCompleted:
					done++
				case StatusRunning:
					running++
				}
			}
			if done != history || running != 8 {
				b.Fatalf("%d of %d history tasks completed and %d of 8 live tasks running", done, history, running)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rt.Run(rt.Eng.Now() + rt.TickSecs())
			}
		})
	}
}
