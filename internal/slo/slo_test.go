package slo

import (
	"bytes"
	"testing"

	"quasar/internal/cluster"
	"quasar/internal/core"
	"quasar/internal/loadgen"
	"quasar/internal/obs"
	"quasar/internal/perfmodel"
	"quasar/internal/workload"
)

// safeLoad returns an offered QPS the service can sustain within its QoS
// bound on the given platform/alloc, with margin: a healthy baseline.
func safeLoad(w *workload.Instance, p *cluster.Platform, alloc cluster.Alloc) float64 {
	capQPS := w.CapacityQPS([]perfmodel.NodeAlloc{{Platform: p, Alloc: alloc}})
	return 0.8 * w.Genome.QPSAtQoS(capQPS, w.Target.LatencyUS)
}

// pinManager places every workload on the next server of a fixed list
// immediately.
type pinManager struct {
	rt      *core.Runtime
	alloc   cluster.Alloc
	servers []int
	next    int
}

func (m *pinManager) Name() string { return "pin" }

func (m *pinManager) OnSubmit(t *core.Task) {
	srv := m.rt.Cl.Servers[m.servers[m.next%len(m.servers)]]
	m.next++
	if err := m.rt.Place(t, srv, m.alloc); err != nil {
		panic(err)
	}
}

func (m *pinManager) OnComplete(t *core.Task) {}
func (m *pinManager) OnEvicted(t *core.Task)  {}
func (m *pinManager) OnTick(now float64)      {}

func testWorld(t *testing.T, seed int64) (*core.Runtime, *workload.Universe, *pinManager) {
	t.Helper()
	platforms := cluster.LocalPlatforms()
	cl, err := cluster.New(platforms, []int{4, 4, 4, 4, 4, 4, 4, 4, 4, 4})
	if err != nil {
		t.Fatal(err)
	}
	rt := core.NewRuntime(cl, core.Options{TickSecs: 5, SampleSecs: 0, Seed: seed})
	u := workload.NewUniverse(platforms, seed+1000, 3)
	// Servers 28-39 (platforms H, I, J) all fit a 12-core/24 GB slice;
	// starting at 36 puts the first workloads on the big J machines.
	m := &pinManager{rt: rt, alloc: cluster.Alloc{Cores: 12, MemoryGB: 24},
		servers: []int{36, 37, 38, 39, 28, 29, 30, 31, 32, 33, 34, 35}}
	return rt, u, m
}

// windowBrute recomputes a window's bad count from a full bit history.
func windowBrute(hist []uint8, ticks int) int {
	n := 0
	for i := len(hist) - ticks; i < len(hist); i++ {
		if i >= 0 && hist[i] == 1 {
			n++
		}
	}
	return n
}

// TestWindowCountsMatchBruteForce drives the incremental ring-buffer window
// counts with an adversarial bit pattern and checks every window against a
// from-scratch recount at every step.
func TestWindowCountsMatchBruteForce(t *testing.T) {
	ws := &wstate{
		ring: make([]uint8, 60),
		rules: []ruleState{
			{long: winCount{ticks: 60}, short: winCount{ticks: 12}},
			{long: winCount{ticks: 37}, short: winCount{ticks: 1}},
		},
	}
	var hist []uint8
	bit := func(i int) uint8 {
		if i%7 == 0 || (i > 100 && i < 140) || i%13 < 3 {
			return 1
		}
		return 0
	}
	for i := 0; i < 400; i++ {
		b := bit(i)
		ws.push(b)
		hist = append(hist, b)
		for ri := range ws.rules {
			r := &ws.rules[ri]
			if got, want := r.long.bad, windowBrute(hist, r.long.ticks); got != want {
				t.Fatalf("step %d rule %d long: bad=%d, brute force %d", i, ri, got, want)
			}
			if got, want := r.short.bad, windowBrute(hist, r.short.ticks); got != want {
				t.Fatalf("step %d rule %d short: bad=%d, brute force %d", i, ri, got, want)
			}
		}
	}
}

// TestPageFiresOnOutageThenResolves is the fast-burn happy path: a healthy
// service, a crash, a page within the fast-burn window, recovery, and a
// hysteresis-delayed resolve.
func TestPageFiresOnOutageThenResolves(t *testing.T) {
	rt, u, m := testWorld(t, 3)
	tr := obs.New(rt.Eng.Now)
	rt.SetTracer(tr)
	rt.SetManager(m)
	eng := Attach(rt, tr, Options{})

	w := u.New(workload.Spec{Type: workload.Memcached, Family: -1, MaxNodes: 4})
	rt.Submit(w, 0, loadgen.Flat{QPS: safeLoad(w, rt.Cl.Servers[36].Platform, m.alloc)})

	const crashAt, restartAt = 2000.0, 2400.0
	rt.Eng.Schedule(crashAt, func() { rt.CrashServer(36) })
	rt.Eng.Schedule(restartAt, func() { rt.RestartServer(36) })
	rt.Run(4000)
	rt.Stop()

	eps := eng.Episodes()
	var page *Episode
	for i := range eps {
		if eps[i].Rule == "page" {
			page = &eps[i]
			break
		}
	}
	if page == nil {
		t.Fatalf("no page fired for a 400s outage; episodes: %+v", eps)
	}
	// Page needs 30s of bad in the long window + 10s in the short: it must
	// land shortly after crash+30s and well before the 400s outage ends.
	if page.FireAt < crashAt+25 || page.FireAt > crashAt+60 {
		t.Fatalf("page fired at %.0fs, want ~%.0fs", page.FireAt, crashAt+30)
	}
	if page.Open() {
		t.Fatal("page still open after recovery + hysteresis window")
	}
	// Resolve waits for the short window to drain plus the hold time.
	if page.ResolveAt < restartAt+60 || page.ResolveAt > restartAt+240 {
		t.Fatalf("page resolved at %.0fs, want within ~[%.0f,%.0f]", page.ResolveAt, restartAt+60, restartAt+240)
	}
	if page.PeakBurn < 10 {
		t.Fatalf("peak burn %.1f, want >= threshold 10", page.PeakBurn)
	}

	// The trace carries the fire/resolve pair with replayable args.
	fires, resolves := 0, 0
	for _, ev := range tr.Events() {
		switch {
		case ev.Cat == "slo" && ev.Name == "alert_fire":
			fires++
			keys := map[string]bool{}
			for _, a := range ev.Args {
				keys[a.Key] = true
			}
			for _, k := range []string{"rule", "budget", "burn_long", "burn_short", "threshold",
				"window_long_secs", "window_short_secs", "bad_secs_long", "bad_secs_short"} {
				if !keys[k] {
					t.Fatalf("alert_fire missing arg %q (needed for why-fire replay)", k)
				}
			}
		case ev.Cat == "slo" && ev.Name == "alert_resolve":
			resolves++
		}
	}
	if fires == 0 || fires != resolves {
		t.Fatalf("trace has %d fires / %d resolves, want matched non-zero pair", fires, resolves)
	}
}

// TestPageAndTicketOnSustainedMiss drives a single-node workload whose IPS
// target is unattainable: the fast burn pages first, the slow burn opens a
// ticket later, and the budget report shows the goal blown.
func TestPageAndTicketOnSustainedMiss(t *testing.T) {
	rt, u, m := testWorld(t, 5)
	rt.SetManager(m)
	eng := Attach(rt, nil, Options{}) // monitoring without tracing must work

	w := u.New(workload.Spec{Type: workload.SingleNode, Family: -1})
	w.Genome.Work = 1e12 // never finishes within the horizon
	w.Target.IPS = 1e9   // unattainable
	rt.Submit(w, 0, nil)
	rt.Run(2000)
	rt.Stop()

	var page, ticket *Episode
	eps := eng.Episodes()
	for i := range eps {
		switch eps[i].Rule {
		case "page":
			page = &eps[i]
		case "ticket":
			ticket = &eps[i]
		}
	}
	if page == nil || ticket == nil {
		t.Fatalf("want both a page and a ticket, got %+v", eps)
	}
	// Bad ticks start after the 600s warmup. With the batch/single-node
	// budget of 5%, the page's long window (300s, burn 10) needs 150s of
	// bad, so it fires near 600+150.
	if page.FireAt < 700 || page.FireAt > 800 {
		t.Fatalf("page fired at %.0fs, want ~750s", page.FireAt)
	}
	if ticket.FireAt <= page.FireAt {
		t.Fatalf("ticket (%.0fs) should fire after the page (%.0fs)", ticket.FireAt, page.FireAt)
	}
	if !page.Open() || !ticket.Open() {
		t.Fatal("alerts resolved while the miss is still sustained")
	}
	if eng.ActiveAlerts() != 2 {
		t.Fatalf("ActiveAlerts = %d, want 2", eng.ActiveAlerts())
	}
	bud := eng.Budgets()
	if len(bud) != 1 {
		t.Fatalf("budgets: %+v", bud)
	}
	if bud[0].Consumed <= 1 {
		t.Fatalf("budget consumed %.2f, want > 1 (goal blown)", bud[0].Consumed)
	}

	var buf bytes.Buffer
	eng.Report(&buf)
	if buf.Len() == 0 {
		t.Fatal("empty report")
	}
}

// TestHealthScoresReflectAlertsAndDetector checks the three health layers:
// a quiet server scores ~1, a server hosting a paging workload loses the
// alert mass, and a server the detector declared dead scores 0.
func TestHealthScoresReflectAlertsAndDetector(t *testing.T) {
	rt, u, m := testWorld(t, 7)
	rt.SetManager(m)
	rt.EnableFailureDetector(core.DefaultDetectorOptions())
	eng := Attach(rt, nil, Options{})

	// Server 36: hosts the impossible workload (alert mass).
	bad := u.New(workload.Spec{Type: workload.SingleNode, Family: -1})
	bad.Genome.Work = 1e12
	bad.Target.IPS = 1e9
	rt.Submit(bad, 0, nil)
	// Server 37: hosts a comfortable service.
	good := u.New(workload.Spec{Type: workload.Memcached, Family: -1, MaxNodes: 4})
	rt.Submit(good, 5, loadgen.Flat{QPS: safeLoad(good, rt.Cl.Servers[37].Platform, m.alloc)})

	// Server 20 crashes and stays down: suspect at +20s, dead at +40s.
	rt.Eng.Schedule(1000, func() { rt.CrashServer(20) })
	rt.Run(2000)
	rt.Stop()

	heat := eng.HealthHeat
	if heat.Times == nil || len(heat.Cells) == 0 {
		t.Fatal("no health sweeps recorded")
	}
	last := heat.Cells[len(heat.Cells)-1]
	if last[20] != 0 {
		t.Fatalf("dead server health %.2f, want 0", last[20])
	}
	if last[36] > 0.55 {
		t.Fatalf("paging server health %.2f, want <= ~0.5 (alert mass %v)", last[36], eng.ActiveAlerts())
	}
	if last[37] < 0.8 {
		t.Fatalf("healthy server health %.2f, want ~1", last[37])
	}
	n := eng.ClusterHealth.Len()
	if n == 0 {
		t.Fatal("no cluster health points")
	}
	first, lastC := eng.ClusterHealth.Vals[0], eng.ClusterHealth.Vals[n-1]
	if !(lastC < first) {
		t.Fatalf("cluster health should degrade over the run: first %.3f, last %.3f", first, lastC)
	}
}

// TestBatchDeadlineSLI pins the analytics SLI: a batch job far behind its
// deadline accumulates bad ticks and alerts; completing clears it.
func TestBatchDeadlineSLI(t *testing.T) {
	rt, u, m := testWorld(t, 13)
	rt.SetManager(m)
	eng := Attach(rt, nil, Options{})

	w := u.New(workload.Spec{Type: workload.Hadoop, Family: 0, MaxNodes: 1, TargetSlack: 1.2,
		Dataset: workload.Dataset{Name: "d", SizeGB: 10, WorkMult: 1, MemMult: 1}})
	w.Target.CompletionSecs = 700 // one tick rate cannot make this
	w.Genome.Work = 1e7
	rt.Submit(w, 0, nil)
	rt.Run(3000)
	rt.Stop()

	eps := eng.Episodes()
	if len(eps) == 0 {
		t.Fatal("hopelessly-late batch job raised no alert")
	}
	for _, ep := range eps {
		if ep.Workload != w.ID {
			t.Fatalf("unexpected workload in episodes: %+v", ep)
		}
	}
}

// readmitManager pins like pinManager, and puts a task that lost every node
// straight back on the next server of the list with a starved allocation.
type readmitManager struct {
	pinManager
	starved   cluster.Alloc
	readmitAt float64
}

func (m *readmitManager) OnEvicted(t *core.Task) {
	srv := m.rt.Cl.Servers[m.servers[m.next%len(m.servers)]]
	m.next++
	if err := m.rt.Place(t, srv, m.starved); err != nil {
		panic(err)
	}
	m.readmitAt = m.rt.Eng.Now()
}

// TestReadmittedServicePagesWithoutNewWarmup displaces a healthy service
// long after its warm-up and re-admits it at once onto a starved
// allocation, where it misses QoS. The outage is the re-admitted service's:
// the page must fire inside the page rule's short window after the
// re-admission, not after a second warm-up.
func TestReadmittedServicePagesWithoutNewWarmup(t *testing.T) {
	rt, u, pin := testWorld(t, 3)
	m := &readmitManager{pinManager: *pin, starved: cluster.Alloc{Cores: 1, MemoryGB: 2}}
	rt.SetManager(m)
	rt.EnableFailureDetector(core.DefaultDetectorOptions())
	eng := Attach(rt, nil, Options{})

	w := u.New(workload.Spec{Type: workload.Memcached, Family: -1, MaxNodes: 4})
	rt.Submit(w, 0, loadgen.Flat{QPS: safeLoad(w, rt.Cl.Servers[36].Platform, m.alloc)})

	// A partition keeps the service running until the detector fences it
	// (dead after 40 s of silence): no bad tick before the re-admission.
	const partitionAt = 2000.0
	rt.Eng.Schedule(partitionAt, func() { rt.PartitionServer(36) })
	rt.Run(3000)
	rt.Stop()

	if m.readmitAt < partitionAt {
		t.Fatalf("service was never re-admitted (readmit at %.0fs)", m.readmitAt)
	}
	var page *Episode
	for _, ep := range eng.Episodes() {
		if ep.Rule == "page" {
			if ep.FireAt < m.readmitAt {
				t.Fatalf("page at %.0fs, before the re-admission at %.0fs: the outage began earlier than the test means", ep.FireAt, m.readmitAt)
			}
			page = &ep
			break
		}
	}
	if page == nil {
		t.Fatalf("no page for a service missing QoS since %.0fs; episodes: %+v", m.readmitAt, eng.Episodes())
	}
	if window := burnRules[0].ShortSecs; page.FireAt > m.readmitAt+window {
		t.Fatalf("page fired at %.0fs, %.0fs after the re-admission; want within the page rule's %.0fs window",
			page.FireAt, page.FireAt-m.readmitAt, window)
	}
}
