package core

import (
	"math"
	"testing"

	"quasar/internal/classify"
	"quasar/internal/cluster"
	"quasar/internal/loadgen"
	"quasar/internal/perfmodel"
	"quasar/internal/sim"
	"quasar/internal/workload"
)

// TestTruthMemoMatchesRecompute drives a seeded random sequence of every
// operation that can move a task's ground truth — placement changes,
// evictions, injected pressure, slowdowns, isolation, crashes and restarts
// under the failure detector's fence, framework re-tuning, phase shifts and
// plain time — and after each one requires every task's memoised rate, as
// TrueRate and TrueCapacityQPS read it, to equal a from-scratch
// JobRate(nodesOf(t)) bit for bit, and the task and server placement indexes
// to agree.
func TestTruthMemoMatchesRecompute(t *testing.T) {
	rt, u := newTestRuntime(t)
	rt.SetManager(&nullManager{rt: rt}) // places nothing: the test drives every change
	rt.EnableFailureDetector(DefaultDetectorOptions())

	specs := []workload.Spec{
		{Type: workload.Hadoop, Family: -1, MaxNodes: 4},
		{Type: workload.Memcached, Family: -1, MaxNodes: 4},
		{Type: workload.SingleNode, Family: -1},
		{Type: workload.SingleNode, Family: -1, BestEffort: true},
	}
	var tasks []*Task
	for i := 0; i < 12; i++ {
		w := u.New(specs[i%len(specs)])
		w.Genome.Work = 1e12 // never completes: completion is not under test
		var load loadgen.Pattern
		if w.Type.Class() == perfmodel.LatencyCritical {
			load = loadgen.Flat{QPS: 0.5 * w.Target.QPS}
		}
		tasks = append(tasks, rt.Submit(w, 0, load))
	}
	rt.Run(1)

	rng := sim.NewRNG(17)
	q := &Quasar{}                               // retuneConfig reads only the task and st.est.Tol
	st := &taskState{est: &classify.Estimates{}} // zero tolerances: disk-sensitive tuning
	server := func() int { return rng.Intn(len(rt.Cl.Servers)) }
	alloc := func() cluster.Alloc {
		return cluster.Alloc{Cores: 1 + rng.Intn(8), MemoryGB: rng.Uniform(1, 16)}
	}
	pressure := func() cluster.ResVec {
		var v cluster.ResVec
		for r := range v {
			if rng.Bool(0.4) {
				v[r] = rng.Uniform(0, 0.6)
			}
		}
		return v
	}
	onServer := func(tk *Task) (int, bool) {
		if len(tk.placements) == 0 {
			return 0, false
		}
		return tk.placements[rng.Intn(len(tk.placements))].Server.ID, true
	}
	// checkIndexes holds the two placement indexes to each other: every
	// task's placements ascend by server ID and are the ones its servers
	// hold, every server's ascend by workload ID, and both sides count the
	// same placements.
	checkIndexes := func(step int, op string) {
		onTasks, onServers := 0, 0
		for _, tk := range rt.Tasks() {
			for i, pl := range tk.Placements() {
				if i > 0 && pl.Server.ID <= tk.placements[i-1].Server.ID {
					t.Fatalf("step %d (%s): %s placements out of server order at %d", step, op, tk.W.ID, i)
				}
				if got := pl.Server.Placement(tk.W.ID); got != pl {
					t.Fatalf("step %d (%s): server %d holds %p for %s, task holds %p", step, op, pl.Server.ID, got, tk.W.ID, pl)
				}
			}
			onTasks += tk.NumNodes()
		}
		for _, s := range rt.Cl.Servers {
			pls := s.Placements()
			for i := 1; i < len(pls); i++ {
				if pls[i].WorkloadID <= pls[i-1].WorkloadID {
					t.Fatalf("step %d (%s): server %d placements out of workload order at %d", step, op, s.ID, i)
				}
			}
			if s.NumPlacements() != len(pls) {
				t.Fatalf("step %d (%s): server %d NumPlacements %d, holds %d", step, op, s.ID, s.NumPlacements(), len(pls))
			}
			onServers += len(pls)
		}
		if onTasks != onServers {
			t.Fatalf("step %d (%s): tasks hold %d placements, servers %d", step, op, onTasks, onServers)
		}
	}

	ops := []struct {
		name string
		do   func(tk *Task)
	}{
		{"place", func(tk *Task) { _ = rt.Place(tk, rt.Cl.Servers[server()], alloc()) }},
		{"resize", func(tk *Task) {
			if id, ok := onServer(tk); ok {
				_ = rt.Resize(tk, rt.Cl.Servers[id], alloc())
			}
		}},
		{"remove", func(tk *Task) {
			if id, ok := onServer(tk); ok {
				_ = rt.RemoveNode(tk, id)
			}
		}},
		{"evict", func(tk *Task) { _ = rt.Evict(tk.W.ID) }},
		{"probe", func(*Task) { rt.Cl.Servers[server()].SetProbe(pressure()) }},
		{"degrade", func(*Task) {
			if id := server(); !rt.UnslowServer(id) {
				rt.SlowServer(id, rng.Uniform(0.1, 0.9))
			}
		}},
		{"isolate", func(*Task) { rt.Cl.Servers[server()].SetIsolation(pressure()) }},
		{"crash", func(tk *Task) {
			if id, ok := onServer(tk); ok {
				rt.CrashServer(id)
			}
		}},
		{"restart", func(*Task) {
			for _, s := range rt.Cl.Servers {
				rt.RestartServer(s.ID)
			}
		}},
		{"retune", func(tk *Task) { q.retuneConfig(tk, st, alloc()) }},
		{"shift-phase", func(tk *Task) {
			f := rng.Uniform(0.5, 1.5)
			rt.ShiftPhase(tk, func(g *perfmodel.Genome) { g.BaseRate *= f })
		}},
		{"advance", func(*Task) { rt.Run(rt.Eng.Now() + 5*float64(1+rng.Intn(12))) }},
		{"measure", func(tk *Task) { _ = rt.MeasuredPerf(tk) }},
	}

	hits, misses := 0, 0
	const steps = 600
	for step := 0; step < steps; step++ {
		op := ops[rng.Intn(len(ops))]
		op.do(tasks[rng.Intn(len(tasks))])
		checkIndexes(step, op.name)
		for _, tk := range tasks {
			if rt.truthValid(tk) {
				hits++
			} else {
				misses++
			}
			want := tk.W.JobRate(rt.nodesOf(tk))
			wantCap := tk.W.CapacityQPS(rt.nodesOf(tk))
			// TrueRate stores on a miss, so the next op meets a fresh memo
			// it must invalidate.
			if got := rt.TrueRate(tk); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("step %d (%s): %s TrueRate %v, recompute %v", step, op.name, tk.W.ID, got, want)
			}
			if got := rt.TrueCapacityQPS(tk); math.Float64bits(got) != math.Float64bits(wantCap) {
				t.Fatalf("step %d (%s): %s TrueCapacityQPS %v, recompute %v", step, op.name, tk.W.ID, got, wantCap)
			}
		}
	}
	rt.Stop()
	if hits == 0 || misses == 0 {
		t.Fatalf("memo valid %d times, stale %d times: both paths must be exercised", hits, misses)
	}
	t.Logf("%d steps: memo valid %d times, stale %d times", steps, hits, misses)
}
