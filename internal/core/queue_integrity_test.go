package core

import (
	"testing"

	"quasar/internal/cluster"
	"quasar/internal/loadgen"
	"quasar/internal/sim"
	"quasar/internal/workload"
)

// queueEntries counts how often each task appears in the manager's queue.
func queueEntries(q *Quasar) map[*Task]int {
	n := make(map[*Task]int)
	for _, t := range q.queue.Tasks() {
		n[t]++
	}
	return n
}

// TestScaleUpEvictsEachFillerOnce: scale-up on a full server evicts its
// best-effort residents to make room. The loop used to range over the live
// resident list while evicting from it, skipping every other filler and
// evicting the last one twice — which queued it twice.
func TestScaleUpEvictsEachFillerOnce(t *testing.T) {
	rt, q, u := quasarFixture(t, 131)
	w := u.New(workload.Spec{Type: workload.SingleNode, Family: -1, TargetSlack: 1.2})
	w.Genome.Work = 1e12
	primary := rt.Submit(w, 0, nil)
	rt.Run(30)
	if primary.Status != StatusRunning || primary.NumNodes() != 1 {
		t.Fatalf("primary is %v on %d nodes, want running on 1", primary.Status, primary.NumNodes())
	}
	srv := primary.Placements()[0].Server
	// Shrink the primary to one core, then fill the rest of the server with
	// four fillers so no core is free. Their arrival is far in the future:
	// the manager never sees them submitted, only evicted.
	if err := rt.Resize(primary, srv, cluster.Alloc{Cores: 1, MemoryGB: 1}); err != nil {
		t.Fatal(err)
	}
	if srv.FreeCores() < 4 {
		t.Fatalf("server %d has %d free cores, the test needs 4", srv.ID, srv.FreeCores())
	}
	var fillers []*Task
	for i := 0; i < 4; i++ {
		be := u.New(workload.Spec{Type: workload.SingleNode, Family: -1, BestEffort: true})
		f := rt.Submit(be, 1e9, nil)
		cores := 1
		if i == 3 {
			cores = srv.FreeCores()
		}
		if err := rt.Place(f, srv, cluster.Alloc{Cores: cores, MemoryGB: 1}); err != nil {
			t.Fatal(err)
		}
		fillers = append(fillers, f)
	}
	if srv.FreeCores() != 0 {
		t.Fatalf("server %d still has %d free cores", srv.ID, srv.FreeCores())
	}

	q.scaleUpOrOut(primary, q.state[w.ID], 1e12, 1)

	entries := queueEntries(q)
	for i, f := range fillers {
		if f.Status != StatusQueued || f.NumNodes() != 0 {
			t.Errorf("filler %d is %v on %d nodes, want evicted", i, f.Status, f.NumNodes())
		}
		if entries[f] != 1 {
			t.Errorf("filler %d is in the queue %d times, want once", i, entries[f])
		}
	}
}

// TestDrainKeepsFillersEvictedMidDrain: a queued targeted task whose
// placement evicts fillers during a drain pushes them onto the queue while
// it is being drained. The drain used to overwrite the queue with its
// survivors afterwards, so those fillers stayed queued forever in no queue.
func TestDrainKeepsFillersEvictedMidDrain(t *testing.T) {
	rt, q, u := quasarFixture(t, 137)
	var fillers []*Task
	for i := 0; i < 400; i++ {
		be := u.New(workload.Spec{Type: workload.SingleNode, Family: -1, BestEffort: true})
		be.Genome.Work = 1e12
		fillers = append(fillers, rt.Submit(be, 0, nil))
	}
	rt.Run(10)
	if q.QueueLen() == 0 {
		t.Fatal("400 fillers did not saturate the cluster")
	}
	// Admit a targeted job while nothing is schedulable, so it queues.
	for _, s := range rt.Cl.Servers {
		s.SetDet(cluster.DetSuspect)
	}
	w := u.New(workload.Spec{Type: workload.SingleNode, Family: -1, TargetSlack: 1.2})
	w.Genome.Work = 1e12
	primary := rt.Submit(w, rt.Eng.Now(), nil)
	rt.Run(rt.Eng.Now() + 20)
	if primary.Status != StatusQueued || queueEntries(q)[primary] != 1 {
		t.Fatalf("primary is %v, want queued once", primary.Status)
	}
	for _, s := range rt.Cl.Servers {
		s.SetDet(cluster.DetOK)
	}
	running := map[*Task]bool{}
	for _, f := range fillers {
		running[f] = f.Status == StatusRunning
	}

	q.drainQueue()

	if primary.Status != StatusRunning {
		t.Fatalf("primary is %v after the drain, want running", primary.Status)
	}
	evicted := map[*Task]bool{}
	entries := queueEntries(q)
	for _, f := range fillers {
		if running[f] && f.Status == StatusQueued {
			evicted[f] = true
			if entries[f] != 1 {
				t.Errorf("evicted filler %s is in the queue %d times, want once", f.W.ID, entries[f])
			}
		}
	}
	if len(evicted) == 0 {
		t.Fatal("placing the primary on a saturated cluster evicted no filler; the test exercises nothing")
	}
	// Room appears — every other filler finishes — and the evicted ones run
	// again.
	for _, f := range fillers {
		if !evicted[f] {
			rt.Release(f)
			f.Status = StatusCompleted
		}
	}
	q.drainQueue()
	for f := range evicted {
		if f.Status != StatusRunning {
			t.Errorf("evicted filler %s is %v after room appeared, want running", f.W.ID, f.Status)
		}
	}
}

// refEligible is the test's own copy of the rule best-effort placement used
// before the no-fit memo existed: some schedulable server has a core and a
// gigabyte free, and a filler's assumed pressure keeps every classified
// resident within its tolerance. Deliberately independent of beSafeOn.
func refEligible(q *Quasar) bool {
	for _, s := range q.rt.Cl.Servers {
		if !s.Schedulable() || s.FreeCores() < 1 || s.FreeMemGB() < 1 {
			continue
		}
		safe := true
		for _, pl := range s.Placements() {
			st := q.state[pl.WorkloadID]
			if !pl.Tier.Targeted() || st == nil {
				continue
			}
			press := s.PressureOn(pl.WorkloadID)
			for r := range press {
				if press[r]+0.12 > st.est.Tol[r]+0.05 {
					safe = false
				}
			}
		}
		if safe {
			return true
		}
	}
	return false
}

// checkedManager forwards to Quasar and checks the queue after every call
// that ends in a drain.
type checkedManager struct {
	t *testing.T
	q *Quasar
	// evictions counts OnEvicted calls; drains counts checked drains, exact
	// counts the instrumented ones that skipped at least one entry.
	evictions, drains, exact int
}

func (m *checkedManager) Name() string     { return m.q.Name() }
func (m *checkedManager) OnSubmit(t *Task) { m.q.OnSubmit(t) }
func (m *checkedManager) OnEvicted(t *Task) {
	m.evictions++
	m.q.OnEvicted(t)
}
func (m *checkedManager) OnComplete(t *Task) { m.checked("OnComplete", func() { m.q.OnComplete(t) }) }
func (m *checkedManager) OnTick(now float64) { m.checked("OnTick", func() { m.q.OnTick(now) }) }
func (m *checkedManager) OnServerDead(s *cluster.Server, displaced []*Task) {
	m.q.OnServerDead(s, displaced)
	m.integrity("OnServerDead")
}

// OnServerRestored is a bare drain in Quasar; the same drain runs here with
// an instrumented callback, which makes the memo's contract exact: an entry
// the drain kept without an attempt must have had no eligible server in the
// state the previous attempt left behind (only attempts change the cluster
// during a drain).
func (m *checkedManager) OnServerRestored(*cluster.Server) {
	m.checked("OnServerRestored", func() {
		q := m.q
		before := append([]*Task(nil), q.queue.Tasks()...)
		attempted := make(map[*Task]bool)
		eligibleAfter := make(map[*Task]bool) // state each attempt left behind
		q.queue.Drain(q.rt.Cl, func(t *Task) (placed, noFit bool) {
			placed, noFit = q.retry(t)
			attempted[t] = true
			eligibleAfter[t] = refEligible(q)
			if noFit && eligibleAfter[t] {
				m.t.Errorf("t=%.0f: placement of %s reported no eligible server, the reference scan finds one",
					q.rt.Eng.Now(), t.W.ID)
			}
			return placed, noFit
		})
		var prev *Task // last attempted entry before the one looked at
		skipped := 0
		for _, t := range before {
			switch {
			case attempted[t]:
				prev = t
			case t.Status != StatusCompleted:
				skipped++
				if !t.W.BestEffort {
					m.t.Errorf("t=%.0f: targeted %s was kept without an attempt", q.rt.Eng.Now(), t.W.ID)
				} else if prev == nil || eligibleAfter[prev] {
					m.t.Errorf("t=%.0f: %s was kept without an attempt while a server was eligible",
						q.rt.Eng.Now(), t.W.ID)
				}
			}
		}
		if skipped > 0 {
			m.exact++
		}
	})
}

// checked runs one manager call that ends in a drain, then checks the queue.
func (m *checkedManager) checked(what string, call func()) {
	q := m.q
	targetedBefore, evictionsBefore := 0, m.evictions
	for _, t := range q.queue.Tasks() {
		if !t.W.BestEffort {
			targetedBefore++
		}
	}
	call()
	m.drains++
	m.integrity(what)
	targeted, fillers := 0, 0
	for _, t := range q.queue.Tasks() {
		if t.W.BestEffort {
			fillers++
		} else {
			targeted++
		}
	}
	// A targeted placement or an eviction late in the drain can legitimately
	// leave room behind that entries earlier in the queue never saw; every
	// other drain must leave no filler queued while a server is eligible.
	if targeted >= targetedBefore && m.evictions == evictionsBefore && fillers > 0 && refEligible(q) {
		m.t.Errorf("t=%.0f after %s: %d fillers queued while the reference scan finds an eligible server",
			q.rt.Eng.Now(), what, fillers)
	}
}

// integrity: every queue entry is a distinct task that is waiting, and every
// waiting task that has arrived is in the queue.
func (m *checkedManager) integrity(what string) {
	q, now := m.q, m.q.rt.Eng.Now()
	seen := queueEntries(q)
	for t, n := range seen {
		if n > 1 {
			m.t.Errorf("t=%.0f after %s: %s is in the queue %d times", now, what, t.W.ID, n)
		}
		if t.Status != StatusQueued || t.NumNodes() != 0 {
			m.t.Errorf("t=%.0f after %s: queued entry %s is %v on %d nodes", now, what, t.W.ID, t.Status, t.NumNodes())
		}
	}
	for _, t := range q.rt.Live() {
		if t.Status == StatusQueued && t.SubmitAt < now && seen[t] == 0 {
			m.t.Errorf("t=%.0f after %s: %s is waiting but in no queue", now, what, t.W.ID)
		}
	}
}

// TestQueueDrainPropertyUnderChurn runs a saturated 60-server world — fillers
// arriving faster than they finish, targeted jobs and services among them,
// servers crashing long enough to be fenced and restarting — and checks the
// admission queue after every drain: no duplicate, no entry that is running
// or finished, no waiting task outside the queue, and no filler left queued
// (or skipped by the memo) while an independent scan finds a server for it.
func TestQueueDrainPropertyUnderChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("churn scenario runs ~10s under -race")
	}
	cl, err := cluster.NewUniform(cluster.LocalPlatforms(), 60)
	if err != nil {
		t.Fatal(err)
	}
	rt, q, u := quasarFixtureOn(cl, 151)
	m := &checkedManager{t: t, q: q}
	rt.SetManager(m)
	rt.EnableFailureDetector(DefaultDetectorOptions())

	const horizon = 3000.0
	rng := sim.NewRNG(153)
	for _, tp := range []workload.Type{workload.Memcached, workload.Webserver, workload.Cassandra} {
		svc := u.New(workload.Spec{Type: tp, Family: -1, MaxNodes: 4})
		rt.Submit(svc, 1, loadgen.Flat{QPS: 0.7 * svc.Target.QPS})
	}
	at := 5.0
	for i := 0; at < horizon-600; i++ {
		at += rng.Uniform(0.2, 1.4)
		if i%8 == 0 {
			tp := []workload.Type{workload.SingleNode, workload.Hadoop, workload.Spark}[i/8%3]
			rt.Submit(u.New(workload.Spec{Type: tp, Family: -1, MaxNodes: 4, TargetSlack: 1.5}), at, nil)
			continue
		}
		be := u.New(workload.Spec{Type: workload.SingleNode, Family: -1, BestEffort: true})
		be.Genome.Work *= rng.Uniform(0.05, 0.6)
		rt.Submit(be, at, nil)
	}
	// Crashes outlast the 40 s detection window, so residents are fenced and
	// recovered; restarts hand an empty server to the instrumented drain.
	for i := 0; i < 25; i++ {
		id, down := rng.Intn(len(cl.Servers)), rng.Uniform(100, horizon-400)
		rt.Eng.Schedule(down, func() { rt.CrashServer(id) })
		rt.Eng.Schedule(down+rng.Uniform(60, 200), func() { rt.RestartServer(id) })
	}
	rt.Run(horizon)
	rt.Stop()

	if err := cl.Idx().Validate(); err != nil {
		t.Error(err)
	}
	rec := q.Recovery()
	t.Logf("%d drains checked (%d instrumented with skips), queue %d at the end, %d evictions, %d displaced",
		m.drains, m.exact, q.QueueLen(), m.evictions, rec.Displaced)
	if m.exact == 0 || m.evictions == 0 || rec.Displaced == 0 {
		t.Errorf("scenario too tame: %d instrumented drains skipped entries, %d evictions, %d displacements",
			m.exact, m.evictions, rec.Displaced)
	}
}
