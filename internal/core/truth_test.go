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
// TrueRate, TrueCapacityQPS and the sim goroutine's storing path read it, to
// equal a from-scratch JobRate(nodesOf(t)) bit for bit.
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
		if len(tk.serverIDs) == 0 {
			return 0, false
		}
		return tk.serverIDs[rng.Intn(len(tk.serverIDs))], true
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
		for _, tk := range tasks {
			if rt.truthValid(tk) {
				hits++
			} else {
				misses++
			}
			want := tk.W.JobRate(rt.nodesOf(tk))
			wantCap := tk.W.CapacityQPS(rt.nodesOf(tk))
			if got := rt.TrueRate(tk); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("step %d (%s): %s TrueRate %v, recompute %v", step, op.name, tk.W.ID, got, want)
			}
			if got := rt.TrueCapacityQPS(tk); math.Float64bits(got) != math.Float64bits(wantCap) {
				t.Fatalf("step %d (%s): %s TrueCapacityQPS %v, recompute %v", step, op.name, tk.W.ID, got, wantCap)
			}
			// Store through the sim goroutine's path, so the next op meets a
			// fresh memo it must invalidate.
			if got := rt.trueRate(tk); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("step %d (%s): %s stored rate %v, recompute %v", step, op.name, tk.W.ID, got, want)
			}
		}
	}
	rt.Stop()
	if hits == 0 || misses == 0 {
		t.Fatalf("memo valid %d times, stale %d times: both paths must be exercised", hits, misses)
	}
	t.Logf("%d steps: memo valid %d times, stale %d times", steps, hits, misses)
}
