package sched

import (
	"testing"

	"quasar/internal/classify"
	"quasar/internal/cluster"
	"quasar/internal/sim"
	"quasar/internal/workload"
)

type fixture struct {
	cl  *cluster.Cluster
	eng *classify.Engine
	u   *workload.Universe
	s   *Scheduler
	est map[string]*classify.Estimates
}

func newFixture(t testing.TB) *fixture {
	t.Helper()
	platforms := cluster.LocalPlatforms()
	cl, err := cluster.New(platforms, []int{4, 4, 4, 4, 4, 4, 4, 4, 4, 4})
	if err != nil {
		t.Fatal(err)
	}
	u := workload.NewUniverse(platforms, 21, 3)
	opts := classify.DefaultOptions()
	opts.MaxNodes = 32
	eng := classify.NewEngine(platforms, opts, sim.NewRNG(5))
	var lib []*workload.Instance
	var probers []*classify.GroundTruthProber
	for _, tp := range []workload.Type{workload.Hadoop, workload.Memcached, workload.SingleNode, workload.Spark} {
		for i := 0; i < 3; i++ {
			w := u.New(workload.Spec{Type: tp, Family: -1, MaxNodes: 4})
			lib = append(lib, w)
			probers = append(probers, classify.NewGroundTruthProber(w, platforms, sim.NewRNG(int64(i))))
		}
	}
	eng.SeedOfflineMany(lib, probers)
	return &fixture{
		cl:  cl,
		eng: eng,
		u:   u,
		s:   New(cl, DefaultOptions()),
		est: map[string]*classify.Estimates{},
	}
}

func (f *fixture) classify(w *workload.Instance) *classify.Estimates {
	es := f.eng.Classify(w, classify.NewGroundTruthProber(w, f.eng.Platforms, sim.NewRNG(77)))
	f.est[w.ID] = es
	return es
}

func (f *fixture) request(w *workload.Instance, need float64, maxNodes int) *Request {
	return &Request{
		W: w, Est: f.classify(w), NeedPerf: need, MaxNodes: maxNodes,
		EstOf: func(id string) *classify.Estimates { return f.est[id] },
	}
}

// place applies an assignment to the cluster.
func (f *fixture) place(t testing.TB, w *workload.Instance, asn *Assignment) {
	t.Helper()
	for _, ev := range asn.Evictions {
		for _, srv := range f.cl.Servers {
			if srv.Placement(ev) != nil {
				if err := srv.Remove(ev); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	for _, n := range asn.Nodes {
		caused := w.CausedPressure(n.Server.Platform, n.Alloc)
		if _, err := n.Server.Place(w.ID, n.Alloc, caused, w.Tier()); err != nil {
			t.Fatalf("place %s: %v", w.ID, err)
		}
	}
}

func TestScheduleMeetsNeed(t *testing.T) {
	f := newFixture(t)
	w := f.u.New(workload.Spec{Type: workload.Hadoop, Family: -1, MaxNodes: 8})
	req := f.request(w, 20, 8)
	asn, err := f.s.Schedule(req)
	if err != nil {
		t.Fatal(err)
	}
	if asn.EstPerf < 20 {
		t.Fatalf("estimated perf %.1f below need 20", asn.EstPerf)
	}
	if len(asn.Nodes) == 0 || len(asn.Nodes) > 8 {
		t.Fatalf("%d nodes", len(asn.Nodes))
	}
	for _, n := range asn.Nodes {
		if !n.Alloc.Valid() || n.Alloc.Cores > n.Server.Platform.Cores {
			t.Fatalf("bad alloc %+v", n.Alloc)
		}
	}
	if asn.Config == nil {
		t.Fatal("configured workload got no tuned config")
	}
}

func TestScheduleLeastResources(t *testing.T) {
	// A tiny need should get a small single-node allocation, not a fleet.
	f := newFixture(t)
	w := f.u.New(workload.Spec{Type: workload.Hadoop, Family: -1, MaxNodes: 8})
	asn, err := f.s.Schedule(f.request(w, 0.5, 8))
	if err != nil {
		t.Fatal(err)
	}
	if len(asn.Nodes) != 1 {
		t.Fatalf("tiny need spread over %d nodes", len(asn.Nodes))
	}
	totalCores := 0
	for _, n := range asn.Nodes {
		totalCores += n.Alloc.Cores
	}
	if totalCores > 8 {
		t.Fatalf("tiny need allocated %d cores", totalCores)
	}
}

// nodeRate is the most one uncontended node can give the request's workload
// at the allocation alloc picks for each platform, by the estimates the
// scheduler itself reads. Tests size needs from it, so the path a need is
// meant to reach does not depend on the drawn workload.
func (f *fixture) nodeRate(req *Request, alloc func(p *cluster.Platform) cluster.Alloc) float64 {
	best := 0.0
	for pidx := range f.cl.Platforms {
		best = max(best, req.Est.NodePerf(pidx, alloc(&f.cl.Platforms[pidx]), cluster.ResVec{}))
	}
	return best
}

func wholeServer(p *cluster.Platform) cluster.Alloc {
	return cluster.Alloc{Cores: p.Cores, MemoryGB: p.MemoryGB}
}

func TestScheduleScalesOutForBigNeed(t *testing.T) {
	f := newFixture(t)
	w := f.u.New(workload.Spec{Type: workload.Hadoop, Family: -1, MaxNodes: 8})
	req := f.request(w, 1, 8)
	req.NeedPerf = f.nodeRate(req, wholeServer) / 4
	small, err := f.s.Schedule(req)
	if err != nil {
		t.Fatal(err)
	}
	// Three whole servers' worth: no single node can meet it.
	w2 := f.u.New(workload.Spec{Type: workload.Hadoop, Family: -1, MaxNodes: 8})
	req2 := f.request(w2, 1, 8)
	req2.NeedPerf = 3 * f.nodeRate(req2, wholeServer)
	big, err := f.s.Schedule(req2)
	if err != nil {
		t.Fatal(err)
	}
	if len(big.Nodes) < 2 || len(big.Nodes) <= len(small.Nodes) {
		t.Fatalf("need of three whole servers did not scale out: %d vs %d nodes", len(big.Nodes), len(small.Nodes))
	}
}

func TestSchedulePrefersGoodPlatformsWhenIdle(t *testing.T) {
	f := newFixture(t)
	w := f.u.New(workload.Spec{Type: workload.SingleNode, Family: -1})
	asn, err := f.s.Schedule(f.request(w, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	// On an idle cluster the top-ranked server should be a high-quality
	// platform for this workload (not the bottom platform A).
	if asn.Nodes[0].Server.Platform.Name == "A" {
		t.Fatal("scheduler picked the weakest platform on an idle cluster")
	}
}

func TestScheduleRespectsMaxNodes(t *testing.T) {
	f := newFixture(t)
	w := f.u.New(workload.Spec{Type: workload.Hadoop, Family: -1, MaxNodes: 8})
	asn, err := f.s.Schedule(f.request(w, 1e6, 3))
	if err != nil {
		// Admission control may reject an impossible need; also fine.
		return
	}
	if len(asn.Nodes) > 3 {
		t.Fatalf("MaxNodes violated: %d", len(asn.Nodes))
	}
}

func TestAdmissionControlOnFullCluster(t *testing.T) {
	f := newFixture(t)
	// Fill every server completely with non-evictable placements.
	for i, srv := range f.cl.Servers {
		id := "filler"
		if _, err := srv.Place(id+string(rune('a'+i%26))+string(rune('a'+i/26)),
			cluster.Alloc{Cores: srv.Platform.Cores, MemoryGB: srv.Platform.MemoryGB},
			cluster.ResVec{}, cluster.Guaranteed); err != nil {
			t.Fatal(err)
		}
	}
	w := f.u.New(workload.Spec{Type: workload.Hadoop, Family: -1, MaxNodes: 4})
	if _, err := f.s.Schedule(f.request(w, 10, 4)); err != ErrNoCapacity {
		t.Fatalf("full cluster: err = %v, want ErrNoCapacity", err)
	}
}

func TestBestEffortEviction(t *testing.T) {
	f := newFixture(t)
	// Fill every server with best-effort fillers.
	for i, srv := range f.cl.Servers {
		id := "be-" + string(rune('a'+i%26)) + string(rune('a'+i/26))
		if _, err := srv.Place(id,
			cluster.Alloc{Cores: srv.Platform.Cores, MemoryGB: srv.Platform.MemoryGB},
			cluster.ResVec{}, cluster.BestEffort); err != nil {
			t.Fatal(err)
		}
	}
	w := f.u.New(workload.Spec{Type: workload.Hadoop, Family: -1, MaxNodes: 4})
	asn, err := f.s.Schedule(f.request(w, 10, 4))
	if err != nil {
		t.Fatalf("evictable capacity should admit the workload: %v", err)
	}
	if len(asn.Evictions) == 0 {
		t.Fatal("no evictions planned on a best-effort-full cluster")
	}
	f.place(t, w, asn)
}

func TestInterferenceAwareAvoidsHostileColocation(t *testing.T) {
	f := newFixture(t)
	// Place a highly sensitive resident on the best platforms, with high
	// caused pressure so colocation hurts both ways.
	resident := f.u.New(workload.Spec{Type: workload.Memcached, Family: -1, MaxNodes: 4})
	resEst := f.classify(resident)
	for r := range resEst.Tol {
		resEst.Tol[r] = 0.02 // tolerates almost nothing
	}
	var hot cluster.ResVec
	for r := range hot {
		hot[r] = 0.9
	}
	for _, srv := range f.cl.Servers {
		if srv.Platform.Name != "J" {
			continue
		}
		if _, err := srv.Place(resident.ID+srv.Platform.Name+string(rune('0'+srv.ID%10)),
			cluster.Alloc{Cores: 12, MemoryGB: 24}, hot, cluster.Guaranteed); err != nil {
			t.Fatal(err)
		}
		f.est[resident.ID+srv.Platform.Name+string(rune('0'+srv.ID%10))] = resEst
	}
	w := f.u.New(workload.Spec{Type: workload.Hadoop, Family: -1, MaxNodes: 2})
	asn, err := f.s.Schedule(f.request(w, 5, 2))
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range asn.Nodes {
		if n.Server.Platform.Name == "J" {
			t.Fatal("scheduler colocated onto a hypersensitive resident's server")
		}
	}
}

func TestCostCap(t *testing.T) {
	f := newFixture(t)
	w := f.u.New(workload.Spec{Type: workload.Hadoop, Family: -1, MaxNodes: 8})
	req := f.request(w, 50, 8)
	unlimited, err := f.s.Schedule(req)
	if err != nil {
		t.Fatal(err)
	}
	req2 := f.request(f.u.New(workload.Spec{Type: workload.Hadoop, Family: -1, MaxNodes: 8}), 50, 8)
	req2.MaxCostPerHour = unlimited.CostPerHour / 3
	capped, err := f.s.Schedule(req2)
	if err != nil {
		return // rejection is an acceptable outcome of a tight cap
	}
	if capped.CostPerHour > req2.MaxCostPerHour+1e-9 {
		t.Fatalf("cost cap violated: %.3f > %.3f", capped.CostPerHour, req2.MaxCostPerHour)
	}
}

func TestScaleOutFirstAblation(t *testing.T) {
	f := newFixture(t)
	f.s.Opts.ScaleOutFirst = true
	w := f.u.New(workload.Spec{Type: workload.Hadoop, Family: -1, MaxNodes: 8})
	req := f.request(w, 1, 8)
	// Three of the ablation's 2-core, 4 GB slices' worth: it has to spread.
	req.NeedPerf = 3 * f.nodeRate(req, func(*cluster.Platform) cluster.Alloc {
		return cluster.Alloc{Cores: 2, MemoryGB: 4}
	})
	asn, err := f.s.Schedule(req)
	if err != nil {
		t.Fatal(err)
	}
	if len(asn.Nodes) < 2 {
		t.Fatalf("scale-out-first met a three-slice need on %d node", len(asn.Nodes))
	}
	for _, n := range asn.Nodes {
		if n.Alloc.Cores > 2 {
			t.Fatalf("scale-out-first gave %d cores on one node", n.Alloc.Cores)
		}
	}
}

func TestRejectsNonPositiveNeed(t *testing.T) {
	f := newFixture(t)
	w := f.u.New(workload.Spec{Type: workload.Hadoop, Family: -1, MaxNodes: 2})
	req := f.request(w, 0, 2)
	if _, err := f.s.Schedule(req); err == nil {
		t.Fatal("zero need accepted")
	}
}

func TestMemoryRightSizing(t *testing.T) {
	// A workload with a small working set should not be handed all the
	// memory of a big server.
	f := newFixture(t)
	w := f.u.New(workload.Spec{Type: workload.SingleNode, Family: -1})
	w.Genome.MemNeedGB = 2
	asn, err := f.s.Schedule(f.request(w, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	if asn.Nodes[0].Alloc.MemoryGB > 24 {
		t.Fatalf("allocated %.0f GB for a 2 GB working set", asn.Nodes[0].Alloc.MemoryGB)
	}
}

func TestPlacementsApplyCleanly(t *testing.T) {
	// Schedule and place a stream of workloads; the cluster bookkeeping
	// must stay consistent and no assignment may overcommit a server.
	f := newFixture(t)
	placed := 0
	for i := 0; i < 20; i++ {
		tp := []workload.Type{workload.Hadoop, workload.Memcached, workload.SingleNode}[i%3]
		w := f.u.New(workload.Spec{Type: tp, Family: -1, MaxNodes: 4})
		need := []float64{10, 5000, 2}[i%3]
		asn, err := f.s.Schedule(f.request(w, need, 4))
		if err != nil {
			continue
		}
		f.place(t, w, asn)
		placed++
	}
	if placed < 10 {
		t.Fatalf("only %d of 20 workloads placed on a 40-server cluster", placed)
	}
	for _, srv := range f.cl.Servers {
		if srv.UsedCores() > srv.Platform.Cores || srv.UsedMemGB() > srv.Platform.MemoryGB+1e-9 {
			t.Fatalf("server %d overcommitted", srv.ID)
		}
	}
}
