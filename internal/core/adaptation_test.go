package core

import (
	"testing"

	"quasar/internal/cluster"
	"quasar/internal/loadgen"
	"quasar/internal/perfmodel"
	"quasar/internal/workload"
)

// TestFeedbackLoopCorrectsPlatformMisestimate: when a job lands on an
// overrated platform, the measured/estimated deviation must flow back into
// the estimates (§3.2's feedback loop) and a subsequent reschedule must
// move it to genuinely better servers.
func TestFeedbackLoopCorrectsPlatformMisestimate(t *testing.T) {
	rt, q, u := quasarFixture(t, 101)
	w := u.New(workload.Spec{Type: workload.Hadoop, Family: 0, MaxNodes: 4, TargetSlack: 1.0,
		Dataset: workload.Dataset{Name: "fb", SizeGB: 20, WorkMult: 3, MemMult: 1}})
	task := rt.Submit(w, 0, nil)
	rt.Run(w.Target.CompletionSecs * 2)
	rt.Stop()
	if task.Status != StatusCompleted {
		t.Fatalf("job not completed: %v", task.Status)
	}
	elapsed := task.DoneAt - task.SubmitAt
	// With the target set to the oracle best (no slack), landing within
	// 40% requires the feedback/reschedule machinery to work.
	if elapsed > 1.4*w.Target.CompletionSecs {
		t.Fatalf("%.0fs vs oracle-best target %.0fs: feedback loop ineffective",
			elapsed, w.Target.CompletionSecs)
	}
	_ = q
}

// TestPhaseChangeTriggersReclassification: halving a running workload's
// rate must produce a reactive phase event.
func TestPhaseChangeTriggersReclassification(t *testing.T) {
	if testing.Short() {
		t.Skip("phase-change scenario runs ~5s under -race")
	}
	rt, q, u := quasarFixture(t, 103)
	w := u.New(workload.Spec{Type: workload.SingleNode, Family: -1, TargetSlack: 1.2})
	w.Genome.Work = 1e9
	task := rt.Submit(w, 0, nil)
	rt.Run(600)
	before := len(q.PhaseEvents)
	rt.Eng.Schedule(700, func() {
		rt.ShiftPhase(task, func(g *perfmodel.Genome) { g.BaseRate *= 0.4 })
	})
	rt.Run(2400)
	rt.Stop()
	found := false
	for _, ev := range q.PhaseEvents[before:] {
		if ev.TaskID == w.ID && ev.Source == "reactive" && ev.Time >= 700 {
			found = true
		}
	}
	if !found {
		t.Fatal("phase change not detected reactively")
	}
}

// TestBestEffortAvoidsSensitiveResidents: Quasar must not pack fillers onto
// servers whose residents tolerate no interference.
func TestBestEffortAvoidsSensitiveResidents(t *testing.T) {
	rt, q, u := quasarFixture(t, 107)
	svc := u.New(workload.Spec{Type: workload.Memcached, Family: 0, MaxNodes: 4})
	rt.Submit(svc, 0, loadgen.Flat{QPS: 0.8 * svc.Target.QPS})
	rt.Run(300)
	// Make the service hypersensitive in Quasar's own estimates.
	if st := q.state[svc.ID]; st != nil {
		for r := range st.est.Tol {
			st.est.Tol[r] = 0.01
		}
	}
	svcServers := map[int]bool{}
	task := rt.Task(svc.ID)
	for _, pl := range task.Placements() {
		svcServers[pl.Server.ID] = true
	}
	if len(svcServers) == 0 {
		t.Fatal("service not placed")
	}
	for i := 0; i < 30; i++ {
		be := u.New(workload.Spec{Type: workload.SingleNode, Family: -1, BestEffort: true})
		be.Genome.Work = 1e9
		rt.Submit(be, 310+float64(i), nil)
	}
	rt.Run(600)
	rt.Stop()
	for _, other := range rt.Tasks() {
		if !other.W.BestEffort || other.Status != StatusRunning {
			continue
		}
		for _, pl := range other.Placements() {
			if svcServers[pl.Server.ID] {
				t.Fatalf("filler %s colocated with a zero-tolerance service", other.W.ID)
			}
		}
	}
}

// TestReclaimReturnsIdleCores: a service whose load collapses must shrink.
func TestReclaimReturnsIdleCores(t *testing.T) {
	if testing.Short() {
		t.Skip("reclaim scenario runs ~3s under -race")
	}
	rt, _, u := quasarFixture(t, 109)
	w := u.New(workload.Spec{Type: workload.Webserver, Family: -1, MaxNodes: 8})
	task := rt.Submit(w, 0, loadgen.Spike{
		Base: 0.1 * w.Target.QPS, Peak: w.Target.QPS, Start: 60, Duration: 1200, RampSecs: 60})
	rt.Run(1300)
	peak := task.TotalCores()
	rt.Run(7200)
	rt.Stop()
	if task.TotalCores() >= peak && peak > 4 {
		t.Fatalf("no reclaim after the spike: %d -> %d cores", peak, task.TotalCores())
	}
}

// TestAdjustmentCooldownPreventsFlapping: allocation changes are spaced by
// the cooldown even under persistent deviation.
func TestAdjustmentCooldownPreventsFlapping(t *testing.T) {
	if testing.Short() {
		t.Skip("cooldown scenario runs ~3s under -race")
	}
	rt, _, u := quasarFixture(t, 113)
	w := u.New(workload.Spec{Type: workload.Hadoop, Family: 0, MaxNodes: 4, TargetSlack: 1.0,
		Dataset: workload.Dataset{Name: "cool", SizeGB: 20, WorkMult: 3, MemMult: 1}})
	task := rt.Submit(w, 0, nil)
	// Count allocation-change events by sampling every tick.
	changes, last := 0, -1
	stop := rt.Eng.Ticker(30, 5, func(now float64) {
		if c := task.TotalCores(); c != last {
			changes++
			last = c
		}
	})
	rt.Run(w.Target.CompletionSecs)
	stop()
	rt.Stop()
	// With a 30s cooldown over the job's lifetime, changes are bounded.
	maxChanges := int(w.Target.CompletionSecs/adjustCooldownSecs) + 4
	if changes > maxChanges {
		t.Fatalf("%d allocation changes in %.0fs (cooldown %ds)",
			changes, w.Target.CompletionSecs, int(adjustCooldownSecs))
	}
}

// TestEvictionRequeuesBestEffort: fillers displaced by a primary workload
// must come back once capacity frees up.
func TestEvictionRequeuesBestEffort(t *testing.T) {
	if testing.Short() {
		t.Skip("eviction scenario runs ~3s under -race")
	}
	rt, _, u := quasarFixture(t, 127)
	var fillers []*Task
	for i := 0; i < 40; i++ {
		be := u.New(workload.Spec{Type: workload.SingleNode, Family: -1, BestEffort: true})
		be.Genome.Work = 1e9
		fillers = append(fillers, rt.Submit(be, float64(i), nil))
	}
	rt.Run(120)
	running := 0
	for _, f := range fillers {
		if f.Status == StatusRunning {
			running++
		}
	}
	if running < 30 {
		t.Fatalf("only %d fillers running before the primary", running)
	}
	// A big primary job displaces some of them...
	w := u.New(workload.Spec{Type: workload.Hadoop, Family: 0, MaxNodes: 8, TargetSlack: 1.0,
		Dataset: workload.Dataset{Name: "ev", SizeGB: 50, WorkMult: 2, MemMult: 1}})
	primary := rt.Submit(w, 130, nil)
	rt.Run(w.Target.CompletionSecs * 2)
	rt.Stop()
	if primary.Status != StatusCompleted {
		t.Fatalf("primary not completed: %v", primary.Status)
	}
	// ...and after it completes, fillers are running again.
	running = 0
	for _, f := range fillers {
		if f.Status == StatusRunning {
			running++
		}
	}
	if running < 30 {
		t.Fatalf("only %d fillers running after the primary finished", running)
	}
}

var _ = cluster.Alloc{}
