package sched

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"testing"

	"quasar/internal/classify"
	"quasar/internal/cluster"
	"quasar/internal/sim"
	"quasar/internal/workload"
)

// This file holds the ranking oracle: a from-scratch sweep over every server
// that trusts no free-resource index state. A randomized sequence of
// placements, evictions, drains, crashes, restarts, partition and detector
// flaps, and probe/degradation churn mutates one cluster, and after every
// step rank must match the oracle exactly — every float bit — because the
// simulator's byte-identical traces depend on it.

// freeAfterEviction recomputes the capacity available counting best-effort
// residents as removable, plus those residents in workload-ID order.
func freeAfterEviction(s *cluster.Server) (cores int, mem float64, evictable []*cluster.Placement) {
	cores, mem = s.FreeCores(), s.FreeMemGB()
	for _, pl := range s.Placements() {
		if pl.BestEffort {
			cores += pl.Alloc.Cores
			mem += pl.Alloc.MemoryGB
			evictable = append(evictable, pl)
		}
	}
	return cores, mem, evictable
}

// rankScan appraises every schedulable server with free capacity on its own,
// in cluster order, and returns the candidates sorted like rank's.
func (s *Scheduler) rankScan(req *Request, cands []candidate) []candidate {
	for _, srv := range s.Cluster.Servers {
		if !srv.Schedulable() {
			continue
		}
		cores, mem, evictable := freeAfterEviction(srv)
		if cores < 1 || mem <= 0 {
			continue
		}
		pidx := s.Cluster.PlatformIndex(srv.Platform.Name)
		cands = append(cands, s.appraise(req, srv, pidx, cores, mem, evictable))
	}
	sort.Sort(&candSorter{cands: cands})
	return cands
}

// describeCandidate serializes every candidate field, floats at full bit
// precision.
func describeCandidate(c candidate) string {
	ev := make([]string, len(c.evictable))
	for i, pl := range c.evictable {
		ev[i] = pl.WorkloadID
	}
	return fmt.Sprintf("server=%d pidx=%d q=%x cores=%d mem=%x pressure=%x compat=%v ev=%v",
		c.server.ID, c.pidx, math.Float64bits(c.quality), c.freeCores,
		math.Float64bits(c.freeMem), math.Float64bits(c.pressure), c.compat, ev)
}

// churnFixture mutates the shared fixture's cluster at random and keeps
// the placed workloads so churn can evict them.
type churnFixture struct {
	*fixture
	placed []string
}

func newChurnFixture(t testing.TB, opts Options) *churnFixture {
	t.Helper()
	f := newFixture(t)
	f.cl.AssignZones(4)
	f.s = New(f.cl, opts)
	return &churnFixture{fixture: f}
}

func (f *churnFixture) newRequest(rng *sim.RNG) *Request {
	types := []workload.Type{workload.Hadoop, workload.Memcached, workload.SingleNode, workload.Spark}
	w := f.u.New(workload.Spec{Type: types[rng.Intn(len(types))], Family: -1, MaxNodes: 4})
	if rng.Bool(0.3) {
		w.BestEffort = true
	}
	es := f.eng.Classify(w, classify.NewGroundTruthProber(w, f.eng.Platforms, rng))
	f.est[w.ID] = es
	return &Request{
		W: w, Est: es,
		NeedPerf: rng.Uniform(0.5, 40),
		MaxNodes: 1 + rng.Intn(4),
		EstOf:    func(id string) *classify.Estimates { return f.est[id] },
	}
}

// compare ranks the request through the index and through the oracle and
// fails on the first divergence.
func (f *churnFixture) compare(t testing.TB, step int, req *Request) {
	t.Helper()
	got := f.s.rank(req)
	want := f.s.rankScan(req, nil)
	n := len(got)
	if len(want) < n {
		n = len(want)
	}
	for i := 0; i < n; i++ {
		if g, w := describeCandidate(got[i]), describeCandidate(want[i]); g != w {
			t.Fatalf("step %d: rank diverges at %d:\n  indexed: %s\n  oracle:  %s", step, i, g, w)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("step %d: rank lengths diverge: indexed %d vs oracle %d", step, len(got), len(want))
	}
}

// apply realizes an assignment on the cluster (evictions first).
func (f *churnFixture) apply(t testing.TB, req *Request, asn *Assignment) {
	t.Helper()
	for _, ev := range asn.Evictions {
		f.removeEverywhere(t, ev)
	}
	f.place(t, req.W, asn)
	if len(asn.Nodes) > 0 {
		f.placed = append(f.placed, req.W.ID)
	}
}

func (f *churnFixture) removeEverywhere(t testing.TB, id string) {
	t.Helper()
	for _, srv := range f.cl.Servers {
		if srv.Placement(id) != nil {
			if err := srv.Remove(id); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i, p := range f.placed {
		if p == id {
			f.placed[i] = f.placed[len(f.placed)-1]
			f.placed = f.placed[:len(f.placed)-1]
			break
		}
	}
}

// churn applies one random cluster mutation.
func (f *churnFixture) churn(t testing.TB, rng *sim.RNG) {
	t.Helper()
	srv := f.cl.Servers[rng.Intn(len(f.cl.Servers))]
	switch k := rng.Intn(100); {
	case k < 30: // evict a random placed workload
		if len(f.placed) > 0 {
			f.removeEverywhere(t, f.placed[rng.Intn(len(f.placed))])
		}
	case k < 45: // drain one server completely
		for _, pl := range append([]*cluster.Placement(nil), srv.Placements()...) {
			if err := srv.Remove(pl.WorkloadID); err != nil {
				t.Fatal(err)
			}
		}
	case k < 60: // crash / restart
		if srv.Up() {
			srv.SetDown()
		} else {
			srv.SetUp()
		}
	case k < 70: // partition flap
		srv.SetPartitioned(!srv.Partitioned())
	case k < 80: // detector flap
		srv.SetDet(cluster.DetectorState(rng.Intn(3)))
	case k < 86: // probe churn
		var v cluster.ResVec
		if rng.Bool(0.5) {
			v[rng.Intn(int(cluster.NumResources))] = rng.Uniform(0, 0.7)
		}
		srv.SetProbe(v)
	case k < 93: // degradation churn
		var v cluster.ResVec
		if rng.Bool(0.5) {
			v[rng.Intn(int(cluster.NumResources))] = rng.Uniform(0, 0.7)
		}
		srv.SetDegrade(v)
	default: // accounting residue on an empty server
		// A fractional resident is placed, resized twice and removed until
		// float residue survives in the memory accounting (rare for any
		// one cycle): the server is empty again, but its free memory is
		// off its platform's by an ulp, so it must not rank as pristine.
		if srv.NumPlacements() > 0 || !srv.Reachable() {
			return
		}
		mem := func() cluster.Alloc {
			return cluster.Alloc{Cores: 1, MemoryGB: rng.Uniform(0.1, 0.9) * srv.Platform.MemoryGB}
		}
		for try := 0; try < 1000 && srv.FreeMemGB() == srv.Platform.MemoryGB; try++ {
			if _, err := srv.Place("residue", mem(), cluster.ResVec{}, false); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 2; i++ {
				if err := srv.Resize("residue", mem(), cluster.ResVec{}); err != nil {
					t.Fatal(err)
				}
			}
			if err := srv.Remove("residue"); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// runChurn drives one randomized mutate-and-compare sequence, placing most
// of the scheduler's assignments so the cluster fills and drains.
func runChurn(t *testing.T, opts Options, rng *sim.RNG, steps int) {
	f := newChurnFixture(t, opts)
	for step := 0; step < steps; step++ {
		f.churn(t, rng)
		req := f.newRequest(rng)
		f.compare(t, step, req)
		asn, err := f.s.Schedule(req)
		if err == nil && rng.Bool(0.7) {
			f.apply(t, req, asn)
		}
	}
	if err := f.cl.Idx().Validate(); err != nil {
		t.Fatalf("final index state: %v", err)
	}
}

// TestRankMatchesScanOracle is the main differential suite: randomized
// place/evict/drain/crash/restart sequences with a full rank comparison
// after every mutation, across independent substreams.
func TestRankMatchesScanOracle(t *testing.T) {
	streams, steps := 6, 60
	if testing.Short() {
		streams, steps = 2, 25
	}
	subs := sim.NewRNG(20260808).Substreams("sched-oracle", streams)
	for i, rng := range subs {
		rng := rng
		t.Run(fmt.Sprintf("substream-%d", i), func(t *testing.T) {
			runChurn(t, DefaultOptions(), rng, steps)
		})
	}
}

// TestRankMatchesScanOracleAblations repeats the differential run under each
// ablation option, which exercises every quality-computation branch of
// appraise and steers the churn through different placements.
func TestRankMatchesScanOracleAblations(t *testing.T) {
	cases := []struct {
		name string
		mod  func(*Options)
	}{
		{"ignore-interference", func(o *Options) { o.IgnoreInterference = true }},
		{"ignore-heterogeneity", func(o *Options) { o.IgnoreHeterogeneity = true }},
		{"ignore-both", func(o *Options) {
			o.IgnoreInterference = true
			o.IgnoreHeterogeneity = true
		}},
		{"spread-zones", func(o *Options) { o.SpreadZones = true }},
		{"scale-out-first", func(o *Options) { o.ScaleOutFirst = true }},
	}
	steps := 30
	if testing.Short() {
		steps = 12
	}
	for ci, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			opts := DefaultOptions()
			tc.mod(&opts)
			runChurn(t, opts, sim.NewRNG(int64(1000+ci)), steps)
		})
	}
}

// packedCluster builds a cluster in the packed steady state a consolidating
// cluster converges to: ~97% of servers are filled completely by several
// colocated residents (the index never visits them, the scan walks every
// one), a thin slice keeps one free core or carries an evictable best-effort
// filler (the occupiable buckets), and the rest stay pristine spares.
func packedCluster(tb testing.TB, servers int) *cluster.Cluster {
	tb.Helper()
	c, err := cluster.NewUniform(cluster.LocalPlatforms(), servers)
	if err != nil {
		tb.Fatal(err)
	}
	for i, srv := range c.Servers {
		switch {
		case i%33 == 0: // pristine spare (~3%)
			continue
		case i%2000 == 50: // fully-packed but evictable
			_, err = srv.Place(fmt.Sprintf("be-%d", i),
				cluster.Alloc{Cores: srv.Platform.Cores, MemoryGB: srv.Platform.MemoryGB},
				cluster.ResVec{}, true)
		case i%2000 == 51: // one core left over
			if srv.Platform.Cores < 2 {
				continue
			}
			_, err = srv.Place(fmt.Sprintf("part-%d", i),
				cluster.Alloc{Cores: srv.Platform.Cores - 1, MemoryGB: srv.Platform.MemoryGB / 2},
				cluster.ResVec{}, false)
		default:
			k := 4
			if srv.Platform.Cores < k {
				k = srv.Platform.Cores
			}
			cores, mem := srv.Platform.Cores/k, srv.Platform.MemoryGB/float64(k)
			for j := 0; j < k && err == nil; j++ {
				a := cluster.Alloc{Cores: cores, MemoryGB: mem}
				if j == k-1 { // remainder goes to the last resident
					a.Cores = srv.FreeCores()
					a.MemoryGB = srv.FreeMemGB()
				}
				_, err = srv.Place(fmt.Sprintf("fill-%d-%d", i, j), a, cluster.ResVec{}, false)
			}
		}
		if err != nil {
			tb.Fatal(err)
		}
	}
	return c
}

// packedRequests classifies a small mixed set of workloads to cycle through,
// so classification cost stays out of the measurement.
func packedRequests(platforms []cluster.Platform) []*Request {
	u := workload.NewUniverse(platforms, 21, 3)
	copts := classify.DefaultOptions()
	copts.MaxNodes = 32
	eng := classify.NewEngine(platforms, copts, sim.NewRNG(20260808))
	est := map[string]*classify.Estimates{}
	types := []workload.Type{workload.Hadoop, workload.Memcached, workload.SingleNode, workload.Spark}
	var reqs []*Request
	for i, tp := range types {
		w := u.New(workload.Spec{Type: tp, Family: -1, MaxNodes: 4})
		es := eng.Classify(w, classify.NewGroundTruthProber(w, platforms, sim.NewRNG(20260808+int64(i))))
		est[w.ID] = es
		reqs = append(reqs, &Request{
			W: w, Est: es, NeedPerf: 2 + float64(i), MaxNodes: 2,
			EstOf: func(id string) *classify.Estimates { return est[id] },
		})
	}
	return reqs
}

// BenchmarkRank times one ranking of a packed cluster through the
// free-resource index and through the scan oracle. The index's advantage
// grows with cluster size: it visits only the spare and occupiable servers.
func BenchmarkRank(b *testing.B) {
	reqs := packedRequests(cluster.LocalPlatforms())
	sizes := []int{1000, 10000}
	clusters := map[int]*cluster.Cluster{}
	for _, path := range []string{"indexed", "scan"} {
		for _, n := range sizes {
			b.Run(path+"/"+strconv.Itoa(n), func(b *testing.B) {
				if clusters[n] == nil {
					clusters[n] = packedCluster(b, n)
				}
				s := New(clusters[n], DefaultOptions())
				var buf []candidate
				rank := func(req *Request) {
					if path == "indexed" {
						s.rank(req)
					} else {
						buf = s.rankScan(req, buf[:0])
					}
				}
				for _, r := range reqs {
					rank(r) // warm the scratch buffers
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					rank(reqs[i%len(reqs)])
				}
			})
		}
	}
}
