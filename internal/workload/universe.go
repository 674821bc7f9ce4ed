package workload

import (
	"fmt"

	"quasar/internal/cluster"
	"quasar/internal/perfmodel"
	"quasar/internal/sim"
)

// Universe generates workload instances against a fixed platform set. It
// holds a pool of families per archetype so repeated submissions of "the
// same application" with different datasets produce related genomes — the
// structure the classification engine learns across arrivals.
type Universe struct {
	Platforms []cluster.Platform

	rng       *sim.RNG
	families  map[string][]*perfmodel.Family
	counter   int
	singleArc []string // archetype names used for single-node workloads
}

// NewUniverse builds a universe with familiesPerArchetype families of every
// archetype, deterministically from seed.
func NewUniverse(platforms []cluster.Platform, seed int64, familiesPerArchetype int) *Universe {
	u := &Universe{
		Platforms: platforms,
		rng:       sim.NewRNG(seed),
		families:  make(map[string][]*perfmodel.Family),
		singleArc: []string{"spec-int", "spec-fp", "parsec", "mining-kernel"},
	}
	for _, arch := range perfmodel.Archetypes() {
		for i := 0; i < familiesPerArchetype; i++ {
			name := fmt.Sprintf("%s-%d", arch.Name, i)
			fam := perfmodel.NewFamily(name, arch, platforms, u.rng.Stream("family/"+name))
			u.families[arch.Name] = append(u.families[arch.Name], fam)
		}
	}
	return u
}

// Counter returns how many instances this universe has generated. The next
// New call mints ID "<type>-%04d" with ordinal Counter()+1 — which is what
// lets an admission front end promise a workload ID before the deterministic
// apply point actually constructs the instance.
func (u *Universe) Counter() int { return u.counter }

// Spec configures instance generation.
type Spec struct {
	Type Type
	// Family optionally pins the family (index into the archetype pool);
	// -1 picks at random.
	Family int
	// Dataset optionally sets the dataset; zero value picks a random one
	// appropriate for the type.
	Dataset Dataset
	// BestEffort marks the workload as evictable filler with no target.
	BestEffort bool
	// TargetSlack relaxes the auto-derived performance target by this
	// factor (1.0 = the oracle-best performance; 1.2 = 20% looser).
	// Zero means 1.0.
	TargetSlack float64
	// QPS / LatencyUS override the auto-derived latency-service target.
	QPS       float64
	LatencyUS float64
	// MaxNodes bounds the oracle's scale-out sweep when deriving targets.
	MaxNodes int
	// MaxCostPerHour optionally caps the allocation's resource cost.
	MaxCostPerHour float64
}

// pickDataset returns a dataset for the type: one of the Table 1 datasets
// for Hadoop/memcached, or a synthetic one otherwise.
func (u *Universe) pickDataset(t Type, rng *sim.RNG) Dataset {
	switch t {
	case Hadoop:
		ds := HadoopDatasets()
		return ds[rng.Intn(len(ds))]
	case Memcached:
		ds := MemcachedDatasets()
		return ds[rng.Intn(len(ds))]
	default:
		mult := rng.Uniform(0.5, 2.0)
		return Dataset{
			Name:     fmt.Sprintf("synthetic-%.1fx", mult),
			SizeGB:   rng.Uniform(1, 900),
			WorkMult: mult,
			MemMult:  rng.Uniform(0.7, 1.5),
		}
	}
}

// New generates a workload instance.
func (u *Universe) New(spec Spec) *Instance {
	u.counter++
	id := fmt.Sprintf("%s-%04d", spec.Type, u.counter)
	rng := u.rng.Stream("instance/" + id)

	arch := spec.Type.Archetype()
	if spec.Type == SingleNode {
		arch = u.singleArc[rng.Intn(len(u.singleArc))]
	}
	pool := u.families[arch]
	if len(pool) == 0 {
		panic(fmt.Sprintf("workload: no families for archetype %q", arch))
	}
	famIdx := spec.Family
	if famIdx < 0 || famIdx >= len(pool) {
		famIdx = rng.Intn(len(pool))
	}
	fam := pool[famIdx]

	ds := spec.Dataset
	if ds.Name == "" {
		ds = u.pickDataset(spec.Type, rng)
	}
	g := fam.Instantiate(rng.Stream("genome"), ds.WorkMult, ds.MemMult)

	w := &Instance{
		ID:             id,
		Type:           spec.Type,
		Family:         fam.Name,
		Dataset:        ds,
		Genome:         g,
		BestEffort:     spec.BestEffort,
		MaxCostPerHour: spec.MaxCostPerHour,
	}
	if spec.Type == Hadoop || spec.Type == Spark || spec.Type == Storm {
		// All three frameworks expose slot/executor/worker counts and heap
		// sizes; the same knob model covers them.
		cfg := DefaultHadoopConfig()
		w.Config = &cfg
	}
	if !spec.BestEffort {
		w.Target = u.deriveTarget(w, spec)
	}
	return w
}

// deriveTarget computes the instance's performance constraint. Analytics
// and single-node targets are set from an oracle parameter sweep ("targets
// are set to the best performance achieved after a parameter sweep on the
// different server platforms", §6.1), relaxed by TargetSlack. Latency
// targets use the provided QPS/latency or sensible defaults near a mid-size
// allocation's capacity.
func (u *Universe) deriveTarget(w *Instance, spec Spec) Target {
	slack := spec.TargetSlack
	if slack <= 0 {
		slack = 1.0
	}
	maxNodes := spec.MaxNodes
	if maxNodes <= 0 {
		if w.Type.Distributed() {
			maxNodes = 8
		} else {
			maxNodes = 1
		}
	}
	switch w.Type.Class() {
	case perfmodel.Analytics:
		best, _ := OracleBestCompletion(w, u.Platforms, maxNodes)
		return Target{Class: perfmodel.Analytics, CompletionSecs: best * slack}
	case perfmodel.LatencyCritical:
		qps, lat := spec.QPS, spec.LatencyUS
		if lat <= 0 {
			lat = w.Genome.ServiceUS * 4 // knee region of the latency curve
		}
		if qps <= 0 {
			// 60% of the best QPS sustainable *within the latency bound*,
			// so the target is comfortably servable.
			capBest := OracleCapacityQPS(w, u.Platforms, maxNodes)
			qps = 0.6 * w.Genome.QPSAtQoS(capBest, lat)
		}
		return Target{Class: perfmodel.LatencyCritical, QPS: qps, LatencyUS: lat}
	default:
		best := OracleBestIPS(w, u.Platforms)
		return Target{Class: perfmodel.SingleNode, IPS: best / slack}
	}
}
