package workload

import (
	"math"
	"testing"

	"quasar/internal/cluster"
	"quasar/internal/perfmodel"
)

func TestCompressionRatios(t *testing.T) {
	if CompressionGzip.Ratio() != 7.6 || CompressionLZO.Ratio() != 5.1 || CompressionNone.Ratio() != 1 {
		t.Fatal("compression ratios do not match Table 3")
	}
	for _, c := range []Compression{CompressionNone, CompressionLZO, CompressionGzip} {
		if c.String() == "" {
			t.Fatal("compression missing name")
		}
	}
}

func TestDefaultHadoopConfigMatchesTable3(t *testing.T) {
	c := DefaultHadoopConfig()
	if c.MappersPerNode != 8 || c.HeapsizeGB != 1.0 || c.BlockSizeMB != 64 ||
		c.Replication != 2 || c.Compression != CompressionLZO {
		t.Fatalf("default Hadoop config %+v does not match Table 3 baseline", c)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []FrameworkConfig{
		{MappersPerNode: 0, HeapsizeGB: 1, BlockSizeMB: 64, Replication: 2},
		{MappersPerNode: 8, HeapsizeGB: 0, BlockSizeMB: 64, Replication: 2},
		{MappersPerNode: 8, HeapsizeGB: 1, BlockSizeMB: 0, Replication: 2},
		{MappersPerNode: 8, HeapsizeGB: 1, BlockSizeMB: 64, Replication: 0},
	}
	for i := range bad {
		if err := bad[i].Validate(); err == nil {
			t.Fatalf("bad config %d accepted", i)
		}
	}
}

func TestEffectMapperOversubscription(t *testing.T) {
	c := DefaultHadoopConfig()
	c.MappersPerNode = 16
	eff := c.Effect(0.5, 8, 0.3)
	if eff.EffectiveCores != 8 {
		t.Fatalf("effective cores %d, want capped at 8", eff.EffectiveCores)
	}
	c2 := DefaultHadoopConfig()
	c2.MappersPerNode = 8
	eff2 := c2.Effect(0.5, 8, 0.3)
	if eff.RateMult >= eff2.RateMult {
		t.Fatal("oversubscription should cost throughput")
	}
}

func TestEffectHeapStarvation(t *testing.T) {
	small := DefaultHadoopConfig()
	small.HeapsizeGB = 0.25
	right := DefaultHadoopConfig()
	right.HeapsizeGB = 1.0
	effSmall := small.Effect(1.0, 8, 0.3)
	effRight := right.Effect(1.0, 8, 0.3)
	if effSmall.RateMult >= effRight.RateMult {
		t.Fatal("undersized heap should cost throughput")
	}
	// Oversized heap does not help but wastes memory.
	big := DefaultHadoopConfig()
	big.HeapsizeGB = 4.0
	effBig := big.Effect(1.0, 8, 0.3)
	if effBig.MemoryGB <= effRight.MemoryGB {
		t.Fatal("bigger heap should require more memory")
	}
}

func TestEffectCompressionHelpsIOBound(t *testing.T) {
	gz := DefaultHadoopConfig()
	gz.Compression = CompressionGzip
	none := DefaultHadoopConfig()
	none.Compression = CompressionNone
	// Heavily IO-bound job: gzip should win despite CPU cost.
	if gz.Effect(0.5, 8, 0.8).RateMult <= none.Effect(0.5, 8, 0.8).RateMult {
		t.Fatal("gzip should beat no compression for IO-bound jobs")
	}
	// Pure CPU job: compression is only overhead.
	if gz.Effect(0.5, 8, 0.0).RateMult >= none.Effect(0.5, 8, 0.0).RateMult {
		t.Fatal("gzip should lose for CPU-bound jobs")
	}
}

func TestEffectReplicationDiskPressure(t *testing.T) {
	c := DefaultHadoopConfig()
	c.Replication = 3
	if c.Effect(0.5, 8, 0.3).DiskMult != 3 {
		t.Fatal("replication should multiply disk pressure")
	}
}

func TestEffectBlockSize(t *testing.T) {
	tiny := DefaultHadoopConfig()
	tiny.BlockSizeMB = 16
	huge := DefaultHadoopConfig()
	huge.BlockSizeMB = 1024
	good := DefaultHadoopConfig()
	if tiny.Effect(0.5, 8, 0.3).RateMult >= good.Effect(0.5, 8, 0.3).RateMult {
		t.Fatal("tiny blocks should cost overhead")
	}
	if huge.Effect(0.5, 8, 0.3).RateMult >= good.Effect(0.5, 8, 0.3).RateMult {
		t.Fatal("huge blocks should cost parallelism")
	}
}

func TestNodeRateAppliesConfig(t *testing.T) {
	u := testUniverse()
	w := u.New(Spec{Type: Hadoop, Family: -1, MaxNodes: 2})
	p := &u.Platforms[9] // J
	alloc := cluster.Alloc{Cores: 12, MemoryGB: 24}

	base := w.NodeRate(p, alloc, cluster.ResVec{})
	if base <= 0 {
		t.Fatal("zero rate for configured workload")
	}
	// Starving the framework's heap memory must reduce the rate.
	w.Config.MappersPerNode = 12
	w.Config.HeapsizeGB = 4 // 48 GB needed, only 24 allocated
	starved := w.NodeRate(p, alloc, cluster.ResVec{})
	if starved >= base {
		t.Fatalf("heap starvation did not reduce rate: %v >= %v", starved, base)
	}
}

func TestCausedPressureReplication(t *testing.T) {
	u := testUniverse()
	w := u.New(Spec{Type: Hadoop, Family: -1, MaxNodes: 2})
	p := &u.Platforms[9]
	alloc := cluster.Alloc{Cores: 8, MemoryGB: 16}
	w.Config.Replication = 1
	p1 := w.CausedPressure(p, alloc)
	w.Config.Replication = 3
	p3 := w.CausedPressure(p, alloc)
	if p3[cluster.ResDiskIO] <= p1[cluster.ResDiskIO] && p1[cluster.ResDiskIO] < 1 {
		t.Fatalf("replication did not raise disk pressure: %v vs %v",
			p3[cluster.ResDiskIO], p1[cluster.ResDiskIO])
	}
	for r := 0; r < int(cluster.NumResources); r++ {
		if p3[r] < 0 || p3[r] > 1 {
			t.Fatalf("pressure out of range: %v", p3[r])
		}
	}
}

func TestOracleBestBeatsDefault(t *testing.T) {
	u := testUniverse()
	w := u.New(Spec{Type: Hadoop, Family: -1, MaxNodes: 4})
	// Default config on a mid platform, 4 nodes.
	p := &u.Platforms[4]
	nodes := wholeNodes(p, 4)
	defTime := w.CompletionTime(nodes)
	best, _ := OracleBestCompletion(w, u.Platforms, 4)
	if best > defTime {
		t.Fatalf("oracle best %.1f worse than a fixed default %.1f", best, defTime)
	}
}

func TestOracleBestConfigReasonable(t *testing.T) {
	u := testUniverse()
	w := u.New(Spec{Type: Hadoop, Family: -1, MaxNodes: 4})
	cfg, plat, secs := OracleBestConfig(w, u.Platforms, 4)
	if plat == "" || math.IsInf(secs, 0) {
		t.Fatalf("oracle config sweep failed: %v %v", plat, secs)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("oracle picked invalid config: %v", err)
	}
	// Restores the instance's own config.
	if w.Config.MappersPerNode != DefaultHadoopConfig().MappersPerNode {
		t.Fatal("oracle sweep clobbered the instance config")
	}
}

func TestOracleBestIPSPositive(t *testing.T) {
	u := testUniverse()
	w := u.New(Spec{Type: SingleNode, Family: -1})
	if ips := OracleBestIPS(w, u.Platforms); ips <= 0 {
		t.Fatalf("best IPS %v", ips)
	}
}

// Scale-out efficiency respected by JobRate for configured workloads.
func TestJobRateScaleOut(t *testing.T) {
	u := testUniverse()
	w := u.New(Spec{Type: Hadoop, Family: -1, MaxNodes: 2})
	w.Genome.Beta = 0.8
	p := &u.Platforms[9]
	r1 := w.JobRate(wholeNodes(p, 1))
	r4 := w.JobRate(wholeNodes(p, 4))
	want := r1 * 4 * math.Pow(4, -0.2)
	if math.Abs(r4-want)/want > 1e-9 {
		t.Fatalf("JobRate scale-out wrong: %v want %v", r4, want)
	}
}

var _ = perfmodel.Analytics // keep import when test set shrinks
