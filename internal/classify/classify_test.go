package classify

import (
	"math"
	"testing"

	"quasar/internal/cluster"
	"quasar/internal/perfmodel"
	"quasar/internal/sim"
	"quasar/internal/workload"
)

// testSetup builds an engine seeded with an offline library, plus the
// universe generating workloads.
func testSetup(t testing.TB, seedPerType int) (*Engine, *workload.Universe) {
	t.Helper()
	platforms := cluster.LocalPlatforms()
	u := workload.NewUniverse(platforms, 7, 3)
	opts := DefaultOptions()
	opts.MaxNodes = 32
	e := NewEngine(platforms, opts, sim.NewRNG(99))
	types := []workload.Type{workload.Hadoop, workload.Spark, workload.Storm,
		workload.Memcached, workload.Cassandra, workload.Webserver, workload.SingleNode}
	for _, tp := range types {
		for i := 0; i < seedPerType; i++ {
			w := u.New(workload.Spec{Type: tp, Family: -1, MaxNodes: 4})
			p := NewGroundTruthProber(w, platforms, sim.NewRNG(int64(1000+i)))
			e.SeedOffline(w, p)
		}
	}
	return e, u
}

func TestScaleUpColumnsQuantized(t *testing.T) {
	p := cluster.LocalPlatforms()[9] // J: 24 cores, 48 GB
	cols := ScaleUpColumns(&p)
	if len(cols) == 0 {
		t.Fatal("no scale-up columns")
	}
	for _, c := range cols {
		if c.Cores > p.Cores || c.MemoryGB > p.MemoryGB {
			t.Fatalf("column %+v exceeds platform", c)
		}
	}
	// Whole-node column must exist.
	j := newScaleUpGrid(&p).nearest(cluster.Alloc{Cores: 24, MemoryGB: 48})
	if cols[j].Cores != 24 || cols[j].MemoryGB != 48 {
		t.Fatalf("whole-node column missing, nearest %+v", cols[j])
	}
}

func TestNearestScaleUpCol(t *testing.T) {
	p := cluster.LocalPlatforms()[9]
	cols := ScaleUpColumns(&p)
	j := newScaleUpGrid(&p).nearest(cluster.Alloc{Cores: 5, MemoryGB: 10})
	if cols[j].Cores < 4 || cols[j].Cores > 6 {
		t.Fatalf("nearest to 5 cores is %+v", cols[j])
	}
}

// scanNearestScaleUpCol is the lookup scaleUpGrid.nearest replaced, kept as
// its oracle: two logs per column over the whole grid.
func scanNearestScaleUpCol(cols []ScaleUpCol, alloc cluster.Alloc) int {
	best, bestD := 0, math.Inf(1)
	for i, c := range cols {
		d := math.Abs(math.Log(float64(c.Cores)/float64(alloc.Cores))) +
			math.Abs(math.Log(c.MemoryGB/alloc.MemoryGB))
		if d < bestD {
			best, bestD = i, d
		}
	}
	return best
}

// TestScaleUpGridMatchesScan: on every platform of both shipped platform
// sets taken as the profiling platform, the table lookup returns the scan's
// index for every allocation a caller can produce and for the degenerate
// ones it must not choke on — inside and beyond the core table, on-grid,
// halfway between rungs (the log-distance ties), off-grid, whole nodes.
func TestScaleUpGridMatchesScan(t *testing.T) {
	for _, set := range [][]cluster.Platform{cluster.LocalPlatforms(), cluster.EC2Platforms()} {
		mems := []float64{0, -1, 0.3, 0.75, 3, 5.5, 7.9, 10, 13.37, 20, 40, 56, 100, 1e6, math.NaN(), math.Inf(1)}
		for i, m := range memGrid {
			mems = append(mems, m, m/2, m*1.5)
			if i > 0 {
				mems = append(mems, math.Sqrt(m*memGrid[i-1]))
			}
		}
		for i := range set {
			mems = append(mems, set[i].MemoryGB)
		}
		for i := range set {
			p := &set[i]
			cols := ScaleUpColumns(p)
			g := newScaleUpGrid(p)
			if len(g.cores)*len(g.mems) != len(cols) {
				t.Fatalf("%s: grid %dx%d does not cover %d columns", p.Name, len(g.cores), len(g.mems), len(cols))
			}
			for cores := -1; cores <= 65; cores++ {
				for _, mem := range mems {
					a := cluster.Alloc{Cores: cores, MemoryGB: mem}
					if got, want := g.nearest(a), scanNearestScaleUpCol(cols, a); got != want {
						t.Fatalf("%s: nearest(%+v) = %d, scan says %d", p.Name, a, got, want)
					}
				}
			}
		}
	}
}

// TestEngineDerivedColumns: what NewEngine precomputes equals what the
// estimate path used to derive on every call.
func TestEngineDerivedColumns(t *testing.T) {
	for _, set := range [][]cluster.Platform{cluster.LocalPlatforms(), cluster.EC2Platforms()} {
		e := NewEngine(set, DefaultOptions(), sim.NewRNG(1))
		if want := scanNearestScaleUpCol(e.SUCols, e.refAlloc()); e.refCol != want {
			t.Fatalf("refCol %d, want %d", e.refCol, want)
		}
		for i, p := range set {
			whole := cluster.Alloc{Cores: p.Cores, MemoryGB: p.MemoryGB}
			if want := scanNearestScaleUpCol(e.SUCols, whole); e.wholeCol[i] != want {
				t.Fatalf("%s: wholeCol %d, want %d", p.Name, e.wholeCol[i], want)
			}
		}
		if e.secondary == e.HighEnd || len(e.informative) == 0 {
			t.Fatalf("secondary %d (high end %d), %d informative columns", e.secondary, e.HighEnd, len(e.informative))
		}
	}
}

func TestScaleOutCounts(t *testing.T) {
	c := ScaleOutCounts(100)
	if c[0] != 1 || c[len(c)-1] != 100 {
		t.Fatalf("counts %v", c)
	}
	small := ScaleOutCounts(4)
	if len(small) != 4 {
		t.Fatalf("counts up to 4: %v", small)
	}
	if got := ScaleOutCounts(0); len(got) != 1 || got[0] != 1 {
		t.Fatalf("degenerate counts: %v", got)
	}
	if idx := NearestCountIdx(c, 50); c[idx] != 48 {
		t.Fatalf("nearest count to 50 = %d", c[idx])
	}
}

func TestJointColumnsSize(t *testing.T) {
	platforms := cluster.LocalPlatforms()
	cols := JointColumns(platforms, 8)
	// platforms x fractions x counts, minus fractions that round to zero
	// cores on small platforms.
	counts := ScaleOutCounts(8)
	want := 0
	for _, p := range platforms {
		for _, f := range []float64{0.25, 0.5, 0.75, 1.0} {
			if int(f*float64(p.Cores)) >= 1 {
				want += len(counts)
			}
		}
	}
	if len(cols) != want {
		t.Fatalf("%d joint columns, want %d", len(cols), want)
	}
	for _, c := range cols {
		al := c.Alloc(platforms)
		if al.Cores < 1 || al.MemoryGB <= 0 {
			t.Fatalf("bad alloc %+v from column %v", al, c)
		}
	}
}

func TestTunedConfig(t *testing.T) {
	cfg := TunedConfig(12, 12, false)
	if cfg.MappersPerNode != 12 {
		t.Fatalf("mappers %d, want one per core", cfg.MappersPerNode)
	}
	if math.Abs(cfg.HeapsizeGB-0.75) > 1e-9 {
		t.Fatalf("heap %v, want 0.75 (Table 3)", cfg.HeapsizeGB)
	}
	if cfg.Compression != workload.CompressionLZO {
		t.Fatal("non-disk-sensitive should use lzo")
	}
	if TunedConfig(12, 12, true).Compression != workload.CompressionGzip {
		t.Fatal("disk-sensitive should use gzip (Table 3)")
	}
	// Heap clamping.
	if TunedConfig(24, 4, false).HeapsizeGB != 0.5 {
		t.Fatal("heap floor not applied")
	}
	if TunedConfig(1, 48, false).HeapsizeGB != 1.5 {
		t.Fatal("heap cap not applied")
	}
}

func TestGroundTruthProberNoiseFree(t *testing.T) {
	platforms := cluster.LocalPlatforms()
	u := workload.NewUniverse(platforms, 11, 2)
	w := u.New(workload.Spec{Type: workload.Hadoop, Family: -1, MaxNodes: 4})
	p := NewGroundTruthProber(w, platforms, nil)
	a := p.ScaleUp(cluster.Alloc{Cores: 8, MemoryGB: 16})
	b := p.ScaleUp(cluster.Alloc{Cores: 8, MemoryGB: 16})
	if a != b {
		t.Fatal("noise-free prober not deterministic")
	}
	if a <= 0 {
		t.Fatal("non-positive measurement")
	}
}

func TestProberScaleOutRelative(t *testing.T) {
	platforms := cluster.LocalPlatforms()
	u := workload.NewUniverse(platforms, 11, 2)
	w := u.New(workload.Spec{Type: workload.Hadoop, Family: -1, MaxNodes: 4})
	p := NewGroundTruthProber(w, platforms, nil)
	r2 := p.ScaleOut(2, cluster.Alloc{Cores: 12, MemoryGB: 24})
	if r2 < 1 || r2 > 2.4 {
		t.Fatalf("2-node scaling ratio %v outside (1, 2.4)", r2)
	}
}

func TestProberLatencyMetricIsQPS(t *testing.T) {
	platforms := cluster.LocalPlatforms()
	u := workload.NewUniverse(platforms, 11, 2)
	w := u.New(workload.Spec{Type: workload.Memcached, Family: -1, MaxNodes: 4})
	p := NewGroundTruthProber(w, platforms, nil)
	perf := p.Heterogeneity(9)
	// QPS at QoS should be within the service's saturation capacity.
	plat := &platforms[9]
	cap := w.CapacityQPS([]perfmodel.NodeAlloc{{Platform: plat,
		Alloc: cluster.Alloc{Cores: plat.Cores, MemoryGB: plat.MemoryGB}}})
	if perf <= 0 || perf > cap {
		t.Fatalf("QPS@QoS %v outside (0, capacity %v]", perf, cap)
	}
}

func TestEngineSeedAndClassifyShapes(t *testing.T) {
	e, u := testSetup(t, 2)
	if e.Rows() != 14 {
		t.Fatalf("seeded rows = %d, want 14", e.Rows())
	}
	w := u.New(workload.Spec{Type: workload.Hadoop, Family: -1, MaxNodes: 4})
	es := e.Classify(w, NewGroundTruthProber(w, e.Platforms, sim.NewRNG(5)))
	if len(es.SULog) != len(e.SUCols) || len(es.SOLog) != len(e.SOCounts) ||
		len(es.HetLog) != len(e.Platforms) {
		t.Fatal("estimate row lengths wrong")
	}
	if _, ok := e.RowOf(w.ID); !ok {
		t.Fatal("classified workload not recorded")
	}
	if es.Beta() < 0.3 || es.Beta() > 1.3 {
		t.Fatalf("beta %v outside clamp", es.Beta())
	}
}

func TestClassificationAccuracy(t *testing.T) {
	// The heart of Table 2: with an offline library seeded, classification
	// from 2 entries per axis should estimate the full surfaces with
	// moderate error (paper: avg < 8%, max < 17%; our synthetic surfaces
	// are harder at the scale-up extremes, so we accept avg < 25%).
	e, u := testSetup(t, 4)
	var su, so, het, interf []float64
	for i := 0; i < 10; i++ {
		w := u.New(workload.Spec{Type: workload.Hadoop, Family: -1, MaxNodes: 4})
		_, errs := Validate(e, w)
		su = append(su, errs.ScaleUp...)
		so = append(so, errs.ScaleOut...)
		het = append(het, errs.Hetero...)
		interf = append(interf, errs.Interf...)
	}
	// Thresholds reflect this substrate's harder surfaces (per-instance
	// dataset effects move the memory cliff): the paper reports <8% avg on
	// real workloads; we bound the same ordering with looser absolutes.
	for name, bound := range map[string]float64{"scale-up": 0.35, "scale-out": 0.25, "hetero": 0.25} {
		var errs []float64
		switch name {
		case "scale-up":
			errs = su
		case "scale-out":
			errs = so
		case "hetero":
			errs = het
		}
		if st := Stats(errs); st.Avg > bound {
			t.Errorf("%s avg error %.3f above %.2f", name, st.Avg, bound)
		}
	}
	if st := Stats(interf); st.Avg > 0.15 {
		t.Errorf("interference avg error %.3f above 0.15", st.Avg)
	}
}

func TestSingleNodeSkipsScaleOut(t *testing.T) {
	e, u := testSetup(t, 2)
	w := u.New(workload.Spec{Type: workload.SingleNode, Family: -1})
	es := e.Classify(w, NewGroundTruthProber(w, e.Platforms, sim.NewRNG(5)))
	for _, v := range es.SOLog {
		if v != 0 {
			t.Fatal("single-node workload has scale-out estimates")
		}
	}
	if es.ScaleOutEff(4) != math.Pow(4, es.Beta()-1) {
		t.Fatal("eff formula mismatch")
	}
}

func TestEstimatesComposition(t *testing.T) {
	e, u := testSetup(t, 3)
	w := u.New(workload.Spec{Type: workload.Hadoop, Family: -1, MaxNodes: 4})
	es := e.Classify(w, NewGroundTruthProber(w, e.Platforms, sim.NewRNG(5)))

	// More resources on the same platform should not decrease estimated
	// performance by much (monotonicity up to quantization).
	lo := es.NodePerf(9, cluster.Alloc{Cores: 4, MemoryGB: 8}, cluster.ResVec{})
	hi := es.NodePerf(9, cluster.Alloc{Cores: 24, MemoryGB: 48}, cluster.ResVec{})
	if hi <= lo {
		t.Fatalf("whole node %v not better than quarter %v", hi, lo)
	}
	// Interference should reduce the estimate.
	var press cluster.ResVec
	for r := range press {
		press[r] = 0.8
	}
	dirty := es.NodePerf(9, cluster.Alloc{Cores: 24, MemoryGB: 48}, press)
	if dirty >= hi {
		t.Fatal("pressure did not reduce estimated perf")
	}
	// JobPerf aggregates.
	nodes := []NodeChoice{
		{PlatformIdx: 9, Alloc: cluster.Alloc{Cores: 24, MemoryGB: 48}},
		{PlatformIdx: 9, Alloc: cluster.Alloc{Cores: 24, MemoryGB: 48}},
	}
	if jp := es.JobPerf(nodes); jp <= hi {
		t.Fatalf("two nodes %v not better than one %v", jp, hi)
	}
}

func TestEstCausedPressureScales(t *testing.T) {
	e, u := testSetup(t, 2)
	w := u.New(workload.Spec{Type: workload.Hadoop, Family: -1, MaxNodes: 4})
	es := e.Classify(w, NewGroundTruthProber(w, e.Platforms, sim.NewRNG(5)))
	small := es.EstCausedPressure(9, cluster.Alloc{Cores: 2, MemoryGB: 4})
	big := es.EstCausedPressure(9, cluster.Alloc{Cores: 24, MemoryGB: 48})
	for r := 0; r < int(cluster.NumResources); r++ {
		if small[r] > big[r]+1e-12 {
			t.Fatalf("caused pressure should grow with allocation at %v", cluster.Resource(r))
		}
		if big[r] < 0 || big[r] > 1 {
			t.Fatalf("caused pressure out of range: %v", big[r])
		}
	}
}

func TestFeedbackUpdatesMatrix(t *testing.T) {
	e, u := testSetup(t, 2)
	w := u.New(workload.Spec{Type: workload.Hadoop, Family: -1, MaxNodes: 4})
	e.Classify(w, NewGroundTruthProber(w, e.Platforms, sim.NewRNG(5)))
	row, _ := e.RowOf(w.ID)
	e.Feedback(w.ID, AxisHetero, 3, 42.0)
	if v, ok := e.axes[AxisHetero].mat.Get(row, 3); !ok || math.Abs(v-math.Log(42)) > 1e-12 {
		t.Fatalf("feedback not recorded: %v %v", v, ok)
	}
	// Feedback for unknown workloads and bad axes must be a no-op.
	e.Feedback("nope", AxisHetero, 0, 1)
	e.Feedback(w.ID, Axis(99), 0, 1)
}

func TestReclassifyKeepsRow(t *testing.T) {
	e, u := testSetup(t, 2)
	w := u.New(workload.Spec{Type: workload.Hadoop, Family: -1, MaxNodes: 4})
	e.Classify(w, NewGroundTruthProber(w, e.Platforms, sim.NewRNG(5)))
	rowsBefore := e.Rows()
	row1, _ := e.RowOf(w.ID)
	es := e.Reclassify(w, NewGroundTruthProber(w, e.Platforms, sim.NewRNG(6)))
	row2, _ := e.RowOf(w.ID)
	if row1 != row2 || e.Rows() != rowsBefore {
		t.Fatal("reclassify should reuse the existing row")
	}
	if es == nil || es.Row != row1 {
		t.Fatal("reclassify estimates wrong row")
	}
	// Reclassify of an unknown workload falls back to Classify.
	w2 := u.New(workload.Spec{Type: workload.Storm, Family: -1, MaxNodes: 4})
	e.Reclassify(w2, NewGroundTruthProber(w2, e.Platforms, sim.NewRNG(7)))
	if _, ok := e.RowOf(w2.ID); !ok {
		t.Fatal("fallback classify did not record row")
	}
}

func TestExhaustiveClassify(t *testing.T) {
	platforms := cluster.LocalPlatforms()
	u := workload.NewUniverse(platforms, 13, 3)
	x := NewExhaustive(platforms, 8, DefaultOptions().CF, sim.NewRNG(3))
	if x.NumColumns() < 100 {
		t.Fatalf("joint space suspiciously small: %d", x.NumColumns())
	}
	for i := 0; i < 6; i++ {
		w := u.New(workload.Spec{Type: workload.Hadoop, Family: -1, MaxNodes: 4})
		x.Seed(w, NewGroundTruthProber(w, platforms, sim.NewRNG(int64(i))))
	}
	w := u.New(workload.Spec{Type: workload.Hadoop, Family: -1, MaxNodes: 4})
	noisy := NewGroundTruthProber(w, platforms, sim.NewRNG(55))
	errs := ValidateExhaustiveWith(x, w, noisy, 8)
	if len(errs) != x.NumColumns() {
		t.Fatalf("%d errors for %d columns", len(errs), x.NumColumns())
	}
	st := Stats(errs)
	if st.Avg > 0.6 {
		t.Fatalf("exhaustive avg error %.3f absurd", st.Avg)
	}
}

func TestStats(t *testing.T) {
	st := Stats([]float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0})
	if math.Abs(st.Avg-0.55) > 1e-12 || st.Max != 1.0 || st.N != 10 {
		t.Fatalf("stats %+v", st)
	}
	if st.P90 != 0.9 {
		t.Fatalf("p90 = %v", st.P90)
	}
	if z := Stats(nil); z.N != 0 || z.Avg != 0 {
		t.Fatalf("empty stats %+v", z)
	}
	m := Merge([]float64{1}, []float64{2, 3})
	if len(m) != 3 {
		t.Fatal("merge wrong")
	}
}

func TestAxisNames(t *testing.T) {
	for a := Axis(0); a < numAxes; a++ {
		if a.String() == "" {
			t.Fatal("axis missing name")
		}
	}
}
