package sched

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"quasar/internal/classify"
	"quasar/internal/cluster"
	"quasar/internal/obs"
	"quasar/internal/sim"
	"quasar/internal/workload"
)

// TestRankPrefixMatchesSort holds the lazy ranking to a full sort on random
// candidate sets in which qualities and whole-node capacities tie often:
// platforms {4 cores × 1.5} and {6 × 1.0} have equal capacity, and
// qualities come from a three-value set, so most orderings are decided by
// the server-ID tie-break. Every at(i) must return the i-th sorted
// candidate with the settled prefix equal to the sort's, and settle after
// any prefix, or none, must complete the sort.
func TestRankPrefixMatchesSort(t *testing.T) {
	plats := []cluster.Platform{
		{Name: "a", Cores: 4, CorePerf: 1.5},
		{Name: "b", Cores: 6, CorePerf: 1.0},
		{Name: "c", Cores: 8, CorePerf: 1.0},
	}
	qualities := []float64{0.5, 1, 2}
	rng := sim.NewRNG(39)
	for trial := 0; trial < 300; trial++ {
		n := rng.Intn(70)
		ids := rng.Perm(4 * n)
		cands := make([]candidate, n)
		for i := range cands {
			q := qualities[rng.Intn(len(qualities))]
			if rng.Bool(0.2) {
				q = rng.Uniform(0, 3)
			}
			cands[i] = candidate{
				server:  cluster.NewServer(ids[i], &plats[rng.Intn(len(plats))]),
				quality: q,
			}
		}
		want := append([]candidate(nil), cands...)
		sort.Sort(scanOrder(want))

		var rk ranking
		rk.reset(append([]candidate(nil), cands...))
		for i := range want {
			got := rk.at(i)
			if got.server != want[i].server || math.Float64bits(got.quality) != math.Float64bits(want[i].quality) {
				t.Fatalf("trial %d: at(%d) = %s, sort has %s", trial, i, describeCandidate(*got), describeCandidate(want[i]))
			}
			sameCandidates(t, fmt.Sprintf("trial %d: prefix after at(%d)", trial, i), rk.cands[:rk.done], want[:rk.done])
		}

		k := rng.Intn(n+1) - 1 // -1: settle with no at, so no heap is built
		rk.reset(append([]candidate(nil), cands...))
		if k >= 0 {
			rk.at(k)
		}
		rk.settle()
		sameCandidates(t, fmt.Sprintf("trial %d: settle after at(%d)", trial, k), rk.cands, want)
	}
}

// TestScheduleSameWithTracer runs one churn sequence twice in lockstep,
// once without a tracer and once with an enabled one (which makes Schedule
// settle the whole ranking up front), and requires identical assignments,
// evictions and estimated performance bits at every step.
func TestScheduleSameWithTracer(t *testing.T) {
	steps := 60
	if testing.Short() {
		steps = 25
	}
	// The fault-zone spreading variant went with the SpreadZones option;
	// the default-options run keeps its subtest name.
	t.Run("spread-zones=false", func(t *testing.T) {
		plain, traced := newChurnFixture(t, DefaultOptions()), newChurnFixture(t, DefaultOptions())
		traced.s.Tracer = obs.NewWithSinks(func() float64 { return 0 }, obs.NewRingSink(4))
		rngP, rngT := sim.NewRNG(4242), sim.NewRNG(4242)
		for step := 0; step < steps; step++ {
			plain.churn(t, rngP)
			traced.churn(t, rngT)
			reqP, reqT := plain.newRequest(rngP), traced.newRequest(rngT)
			asnP, errP := plain.s.Schedule(reqP)
			asnT, errT := traced.s.Schedule(reqT)
			if g, w := describeAssignment(asnT, errT), describeAssignment(asnP, errP); g != w {
				t.Fatalf("step %d: traced Schedule differs:\n  traced: %s\n  plain:  %s", step, g, w)
			}
			applyP, applyT := rngP.Bool(0.7), rngT.Bool(0.7)
			if errP == nil && applyP && applyT {
				plain.apply(t, reqP, asnP)
				traced.apply(t, reqT, asnT)
			}
		}
	})
}

// TestDecisionTopKPretrimMatchesTruncate holds emitDecision's TopK pre-trim
// to the tracer's own truncation (obs.Controls): a packed Schedule traced
// under Controls{TopK: k} must emit the same decision line, drop count
// included, as the full decision of a run without controls re-emitted
// through a TopK: k tracer.
func TestDecisionTopKPretrimMatchesTruncate(t *testing.T) {
	cl := packedCluster(t, 1000)
	reqs := packedRequests(cluster.LocalPlatforms())
	// decisionLine returns the decision event's JSONL line as a tracer with
	// Controls{TopK: k} writes it.
	decisionLine := func(k int, emit func(tr *obs.Tracer)) string {
		t.Helper()
		var buf bytes.Buffer
		tr := obs.NewWithSinks(nil, obs.NewStreamSinkWriter(&buf))
		tr.SetControls(obs.Controls{TopK: k})
		emit(tr)
		if err := tr.Close(); err != nil {
			t.Fatal(err)
		}
		for _, ln := range strings.Split(buf.String(), "\n") {
			if strings.Contains(ln, `"name":"decision"`) {
				return ln
			}
		}
		t.Fatalf("no decision line in:\n%s", buf.String())
		return ""
	}
	picksBeyondTopK := 0
	for _, k := range []int{1, 3, 8} {
		for i, req := range reqs {
			pretrimmed := decisionLine(k, func(tr *obs.Tracer) {
				s := New(cl, DefaultOptions())
				s.Tracer = tr
				if _, err := s.Schedule(req); err != nil {
					t.Fatal(err)
				}
			})

			full := New(cl, DefaultOptions())
			full.Tracer = obs.New(nil)
			if _, err := full.Schedule(req); err != nil {
				t.Fatal(err)
			}
			var d obs.ScheduleDecision
			for _, ev := range full.Tracer.Events() {
				if ev.Name == "decision" {
					d = ev.Args[0].Val.(obs.ScheduleDecision)
				}
			}
			if len(d.Candidates) <= k {
				t.Fatalf("k=%d request %d: %d candidates, too few to truncate", k, i, len(d.Candidates))
			}
			for _, c := range d.Candidates[k:] {
				if c.Picked {
					picksBeyondTopK++
				}
			}
			truncated := decisionLine(k, func(tr *obs.Tracer) {
				tr.Instant("manager", "sched", "decision", obs.Arg{Key: "decision", Val: d})
			})
			if pretrimmed != truncated {
				t.Errorf("k=%d request %d: pre-trimmed decision differs from truncated full decision:\n  pre-trimmed: %s\n  truncated:   %s",
					k, i, pretrimmed, truncated)
			}
		}
	}
	if picksBeyondTopK == 0 {
		t.Error("no picked server ranked beyond TopK: the picks-after-TopK path went unexercised")
	}
}

// describeAssignment serializes a Schedule outcome, floats at full bit
// precision.
func describeAssignment(asn *Assignment, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	s := fmt.Sprintf("est=%x cost=%x ev=%v nodes=", math.Float64bits(asn.EstPerf), math.Float64bits(asn.CostPerHour), asn.Evictions)
	for _, n := range asn.Nodes {
		s += fmt.Sprintf("[%d %dc %xg]", n.Server.ID, n.Alloc.Cores, math.Float64bits(n.Alloc.MemoryGB))
	}
	return s
}

// churnShape builds the state sim_scale_churn's scheduler works in: 500
// servers, every one held by single-node residents (nine in ten of them
// best-effort, so evictable), none pristine, most with a core or two left.
// It returns the targeted single-node requests to cycle through.
func churnShape(tb testing.TB) (*cluster.Cluster, []*Request) {
	tb.Helper()
	platforms := cluster.LocalPlatforms()
	cl, err := cluster.NewUniform(platforms, 500)
	if err != nil {
		tb.Fatal(err)
	}
	u := workload.NewUniverse(platforms, 21, 3)
	copts := classify.DefaultOptions()
	copts.MaxNodes = 32
	eng := classify.NewEngine(platforms, copts, sim.NewRNG(20260808))
	est := map[string]*classify.Estimates{}
	estOf := func(id string) *classify.Estimates { return est[id] }
	classifyOne := func(spec workload.Spec, seed int64) *workload.Instance {
		w := u.New(spec)
		est[w.ID] = eng.Classify(w, classify.NewGroundTruthProber(w, platforms, sim.NewRNG(seed)))
		return w
	}
	var residents []*workload.Instance
	for i := 0; i < 20; i++ {
		residents = append(residents, classifyOne(workload.Spec{
			Type: workload.SingleNode, Family: -1, BestEffort: i%10 != 0, TargetSlack: 1.5,
		}, int64(100+i)))
	}
	rng := sim.NewRNG(500)
	for i, srv := range cl.Servers {
		for j := 0; j < 2 && srv.FreeCores() > 0; j++ {
			w := residents[(2*i+j)%len(residents)]
			cores := max(1, srv.FreeCores()-rng.Intn(3))
			if j == 0 {
				cores = max(1, srv.FreeCores()/2)
			}
			a := cluster.Alloc{Cores: cores, MemoryGB: srv.FreeMemGB() * float64(cores) / float64(srv.FreeCores())}
			if _, err := srv.Place(w.ID, a, w.CausedPressure(srv.Platform, a), w.Tier()); err != nil {
				tb.Fatal(err)
			}
		}
	}
	var reqs []*Request
	for i := 0; i < 8; i++ {
		w := classifyOne(workload.Spec{Type: workload.SingleNode, Family: -1, TargetSlack: 1.5}, int64(200+i))
		reqs = append(reqs, &Request{W: w, Est: est[w.ID], NeedPerf: w.Target.IPS, MaxNodes: 1, EstOf: estOf})
	}
	return cl, reqs
}

// BenchmarkSchedule times one Schedule call in the churn shape: every
// server is a candidate, and a decision reads only the top of the ranking.
func BenchmarkSchedule(b *testing.B) {
	cl, reqs := churnShape(b)
	s := New(cl, DefaultOptions())
	for _, r := range reqs {
		_, _ = s.Schedule(r) // warm the scratch buffers
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Schedule(reqs[i%len(reqs)]); err != nil && err != ErrNoCapacity {
			b.Fatal(err)
		}
	}
}
