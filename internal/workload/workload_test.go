package workload

import (
	"math"
	"strings"
	"testing"

	"quasar/internal/cluster"
	"quasar/internal/perfmodel"
)

func testUniverse() *Universe {
	return NewUniverse(cluster.LocalPlatforms(), 42, 3)
}

func TestTypeProperties(t *testing.T) {
	cases := []struct {
		tp          Type
		class       perfmodel.Class
		distributed bool
		stateful    bool
	}{
		{Hadoop, perfmodel.Analytics, true, false},
		{Spark, perfmodel.Analytics, true, false},
		{Storm, perfmodel.Analytics, true, false},
		{Memcached, perfmodel.LatencyCritical, true, true},
		{Cassandra, perfmodel.LatencyCritical, true, true},
		{Webserver, perfmodel.LatencyCritical, true, false},
		{SingleNode, perfmodel.SingleNode, false, false},
	}
	for _, c := range cases {
		if c.tp.Class() != c.class {
			t.Fatalf("%v class = %v, want %v", c.tp, c.tp.Class(), c.class)
		}
		if c.tp.Distributed() != c.distributed {
			t.Fatalf("%v distributed = %v", c.tp, c.tp.Distributed())
		}
		if c.tp.Stateful() != c.stateful {
			t.Fatalf("%v stateful = %v", c.tp, c.tp.Stateful())
		}
		if c.tp.String() == "" || strings.HasPrefix(c.tp.String(), "type(") {
			t.Fatalf("%d has no name", int(c.tp))
		}
	}
}

func TestTargetValidate(t *testing.T) {
	good := []Target{
		{Class: perfmodel.Analytics, CompletionSecs: 100},
		{Class: perfmodel.LatencyCritical, QPS: 1000, LatencyUS: 200},
		{Class: perfmodel.SingleNode, IPS: 5},
	}
	for _, g := range good {
		if err := g.Validate(); err != nil {
			t.Fatalf("valid target rejected: %v", err)
		}
	}
	bad := []Target{
		{Class: perfmodel.Analytics},
		{Class: perfmodel.LatencyCritical, QPS: 1000},
		{Class: perfmodel.LatencyCritical, LatencyUS: 100},
		{Class: perfmodel.SingleNode},
		{Class: perfmodel.Class(99), IPS: 1},
	}
	for i, b := range bad {
		if err := b.Validate(); err == nil {
			t.Fatalf("bad target %d accepted", i)
		}
	}
}

func TestUniverseGeneratesValidInstances(t *testing.T) {
	u := testUniverse()
	for tp := Type(0); tp < NumTypes; tp++ {
		w := u.New(Spec{Type: tp, Family: -1, MaxNodes: 4})
		if err := w.Validate(); err != nil {
			t.Fatalf("%v instance invalid: %v", tp, err)
		}
		if w.Genome == nil || w.Family == "" || w.Dataset.Name == "" {
			t.Fatalf("%v instance incomplete: %+v", tp, w)
		}
		if (tp == Hadoop || tp == Spark) && w.Config == nil {
			t.Fatalf("%v instance lacks framework config", tp)
		}
	}
}

func TestUniverseUniqueIDs(t *testing.T) {
	u := testUniverse()
	seen := map[string]bool{}
	for i := 0; i < 50; i++ {
		w := u.New(Spec{Type: SingleNode, Family: -1})
		if seen[w.ID] {
			t.Fatalf("duplicate ID %s", w.ID)
		}
		seen[w.ID] = true
	}
}

func TestUniverseDeterministic(t *testing.T) {
	u1, u2 := testUniverse(), testUniverse()
	for i := 0; i < 10; i++ {
		a := u1.New(Spec{Type: Hadoop, Family: -1, MaxNodes: 2})
		b := u2.New(Spec{Type: Hadoop, Family: -1, MaxNodes: 2})
		if a.ID != b.ID || a.Family != b.Family || a.Genome.Work != b.Genome.Work {
			t.Fatalf("universe not deterministic at %d: %v vs %v", i, a, b)
		}
	}
}

func TestBestEffortHasNoTarget(t *testing.T) {
	u := testUniverse()
	w := u.New(Spec{Type: SingleNode, Family: -1, BestEffort: true})
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	if w.Target.IPS != 0 {
		t.Fatal("best-effort workload got a target")
	}
}

// TestInstanceTier holds Tier to the spec flag and the class: the flag wins
// on any type, and targeted work is guaranteed only if latency-critical.
func TestInstanceTier(t *testing.T) {
	for _, tc := range []struct {
		typ        Type
		bestEffort bool
		want       cluster.Tier
	}{
		{Memcached, false, cluster.Guaranteed},
		{Webserver, false, cluster.Guaranteed},
		{Hadoop, false, cluster.Burstable},
		{SingleNode, false, cluster.Burstable},
		{SingleNode, true, cluster.BestEffort},
		{Memcached, true, cluster.BestEffort},
	} {
		w := &Instance{Type: tc.typ, BestEffort: tc.bestEffort}
		if got := w.Tier(); got != tc.want {
			t.Errorf("%v best-effort=%v: tier %d, want %d", tc.typ, tc.bestEffort, got, tc.want)
		}
	}
}

func TestAnalyticsTargetAchievable(t *testing.T) {
	u := testUniverse()
	w := u.New(Spec{Type: Hadoop, Family: -1, MaxNodes: 4, TargetSlack: 1.0})
	// The target is the oracle best, so it must be achievable: the oracle
	// itself achieves it.
	best, _ := OracleBestCompletion(w, u.Platforms, 4)
	if math.Abs(best-w.Target.CompletionSecs) > 1e-6 {
		t.Fatalf("target %.1f != oracle best %.1f", w.Target.CompletionSecs, best)
	}
	if best <= 0 || math.IsInf(best, 0) {
		t.Fatalf("oracle best %v not finite", best)
	}
}

func TestTargetSlackLoosens(t *testing.T) {
	u1, u2 := testUniverse(), testUniverse()
	tight := u1.New(Spec{Type: Hadoop, Family: 0, MaxNodes: 2, TargetSlack: 1.0})
	loose := u2.New(Spec{Type: Hadoop, Family: 0, MaxNodes: 2, TargetSlack: 1.5})
	if loose.Target.CompletionSecs <= tight.Target.CompletionSecs {
		t.Fatalf("slack did not loosen target: %.1f vs %.1f",
			loose.Target.CompletionSecs, tight.Target.CompletionSecs)
	}
}

func TestLatencyTargetDefaults(t *testing.T) {
	u := testUniverse()
	w := u.New(Spec{Type: Memcached, Family: -1, MaxNodes: 4})
	if w.Target.QPS <= 0 || w.Target.LatencyUS <= 0 {
		t.Fatalf("latency target incomplete: %+v", w.Target)
	}
	// The default QPS (60% of best capacity) must be servable within
	// the latency constraint at the oracle's best allocation.
	cap := OracleCapacityQPS(w, u.Platforms, 4)
	if w.Target.QPS > cap {
		t.Fatalf("target QPS %.0f exceeds best capacity %.0f", w.Target.QPS, cap)
	}
}

func TestLatencyTargetOverride(t *testing.T) {
	u := testUniverse()
	w := u.New(Spec{Type: Webserver, Family: -1, QPS: 123, LatencyUS: 100000})
	if w.Target.QPS != 123 || w.Target.LatencyUS != 100000 {
		t.Fatalf("override ignored: %+v", w.Target)
	}
}

func TestInstanceValidateCatchesMismatch(t *testing.T) {
	u := testUniverse()
	w := u.New(Spec{Type: Hadoop, Family: -1, MaxNodes: 2})
	w.Target.Class = perfmodel.LatencyCritical
	if err := w.Validate(); err == nil {
		t.Fatal("class mismatch accepted")
	}
	w2 := u.New(Spec{Type: Hadoop, Family: -1, MaxNodes: 2})
	w2.Genome = nil
	if err := w2.Validate(); err == nil {
		t.Fatal("nil genome accepted")
	}
}

func TestDatasetTables(t *testing.T) {
	h := HadoopDatasets()
	if len(h) != 3 || h[0].Name != "netflix" || h[0].SizeGB != 2.1 {
		t.Fatalf("hadoop datasets wrong: %+v", h)
	}
	m := MemcachedDatasets()
	if len(m) != 3 {
		t.Fatalf("memcached datasets wrong: %+v", m)
	}
}

func TestPinnedFamilyAndDataset(t *testing.T) {
	u := testUniverse()
	ds := HadoopDatasets()[2]
	w1 := u.New(Spec{Type: Hadoop, Family: 1, Dataset: ds, MaxNodes: 2})
	w2 := u.New(Spec{Type: Hadoop, Family: 1, Dataset: ds, MaxNodes: 2})
	if w1.Family != w2.Family {
		t.Fatalf("pinned family differs: %s vs %s", w1.Family, w2.Family)
	}
	if w1.Dataset.Name != "wikipedia" {
		t.Fatalf("pinned dataset ignored: %s", w1.Dataset.Name)
	}
	// Same family, same dataset: genomes similar but not identical.
	if w1.Genome.Work == w2.Genome.Work {
		t.Fatal("instances should carry instance-level noise")
	}
}

// TestUniformJobRateMatchesJobRate: UniformJobRate returns the bits of
// JobRate over n copies of one node, for every type and every node count up
// to 100.
func TestUniformJobRateMatchesJobRate(t *testing.T) {
	u := testUniverse()
	p := &u.Platforms[cluster.HighestEnd(u.Platforms)]
	alloc := cluster.Alloc{Cores: p.Cores, MemoryGB: p.MemoryGB}
	for tp := Type(0); tp < NumTypes; tp++ {
		w := u.New(Spec{Type: tp, Family: -1, MaxNodes: 4})
		r := w.NodeRate(p, alloc, cluster.ResVec{})
		var nodes []perfmodel.NodeAlloc
		for n := 1; n <= 100; n++ {
			nodes = append(nodes, perfmodel.NodeAlloc{Platform: p, Alloc: alloc})
			if got, want := w.UniformJobRate(r, n), w.JobRate(nodes); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s on %d nodes: UniformJobRate %v, JobRate %v", w.ID, n, got, want)
			}
		}
	}
}
