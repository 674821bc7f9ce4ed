// Package baselines implements the comparison cluster managers of the
// paper's evaluation (§5): reservation-based allocation with least-loaded
// assignment, reservation-based allocation with Paragon (heterogeneity- and
// interference-aware) assignment, auto-scaling for latency services, and
// framework self-scheduling for analytics jobs. None of them right-size
// allocations against performance targets — that is Quasar's contribution.
package baselines

import (
	"math"
	"sort"

	"quasar/internal/classify"
	"quasar/internal/cluster"
	"quasar/internal/core"
	"quasar/internal/perfmodel"
	"quasar/internal/sim"
)

// AssignKind selects the resource-assignment policy.
type AssignKind int

const (
	// AssignLeastLoaded picks the server with the most free cores,
	// ignoring heterogeneity and interference.
	AssignLeastLoaded AssignKind = iota
	// AssignParagon ranks servers with Paragon-style classification:
	// heterogeneity and interference aware, but the *allocation* (how
	// much) still comes from reservations.
	AssignParagon
)

// Options configures a baseline manager.
type Options struct {
	Assign AssignKind

	// Misestimate applies the Fig. 1d reservation-error distribution: 70%
	// of workloads over-reserve by up to 10x, 20% under-reserve by up to
	// 5x, 10% reserve correctly.
	Misestimate bool

	// AutoscaleServices manages latency services with a load-triggered
	// auto-scaler (add an instance above scaleUpLoad, drop one below
	// scaleDownLoad) instead of a static reservation.
	AutoscaleServices bool
	MaxInstances      int // default 8 (the 1-8 servers of §5)

	// MaxNodes bounds analytics reservations.
	MaxNodes int
}

// DefaultOptions returns the reservation+least-loaded configuration.
func DefaultOptions() Options {
	return Options{
		Assign:       AssignLeastLoaded,
		Misestimate:  true,
		MaxInstances: 8,
		MaxNodes:     16,
	}
}

type resState struct {
	nodes     int
	alloc     cluster.Alloc
	est       *classify.Estimates // Paragon assignment only
	instances int                 // autoscaled services
	lastScale float64
}

// Baseline is a reservation/auto-scaling manager.
type Baseline struct {
	rt   *core.Runtime
	opts Options
	rng  *sim.RNG

	engine *classify.Engine // Paragon assignment
	state  map[string]*resState
	queue  core.WaitQueue
	name   string

	// rankServers' buffers, reused across calls.
	cands  []*cluster.Server
	scored []scoredServer
}

// scoredServer is a candidate with its Paragon quality, computed once
// before the sort.
type scoredServer struct {
	quality float64
	srv     *cluster.Server
}

// New builds a baseline manager over the runtime.
func New(rt *core.Runtime, opts Options) *Baseline {
	if opts.MaxInstances <= 0 {
		opts.MaxInstances = 8
	}
	if opts.MaxNodes <= 0 {
		opts.MaxNodes = 16
	}
	name := "reservation+LL"
	if opts.Assign == AssignParagon {
		name = "reservation+paragon"
	}
	b := &Baseline{
		rt:    rt,
		opts:  opts,
		rng:   rt.RNG.Stream("baseline"),
		state: make(map[string]*resState),
		name:  name,
	}
	if opts.Assign == AssignParagon {
		cOpts := classify.DefaultOptions()
		cOpts.MaxNodes = opts.MaxNodes
		b.engine = classify.NewEngine(rt.Cl.Platforms, cOpts, rt.RNG.Stream("paragon"))
	}
	return b
}

// Engine exposes the Paragon classification engine for offline seeding.
func (b *Baseline) Engine() *classify.Engine { return b.engine }

// Name implements core.Manager.
func (b *Baseline) Name() string { return b.name }

// misestimationFactor draws a reservation error per Fig. 1d.
func (b *Baseline) misestimationFactor(id string) float64 {
	if !b.opts.Misestimate {
		return 1
	}
	rng := b.rng.Stream("mis/" + id)
	r := rng.Float64()
	switch {
	case r < 0.70:
		return rng.Uniform(1, 10) // over-sized
	case r < 0.90:
		return rng.Uniform(0.2, 1) // under-sized
	default:
		return rng.Uniform(0.95, 1.05)
	}
}

// medianPlatform returns a middle-of-the-road platform the user/framework
// implicitly assumes when estimating needs.
func (b *Baseline) medianPlatform() *cluster.Platform {
	ps := b.rt.Cl.Platforms
	idx := make([]int, len(ps))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, c int) bool {
		return float64(ps[idx[a]].Cores)*ps[idx[a]].CorePerf < float64(ps[idx[c]].Cores)*ps[idx[c]].CorePerf
	})
	return &ps[idx[len(idx)/2]]
}

// reservation computes what the user/framework asks for: node count and a
// fixed per-node allocation. It reflects how reservations are actually
// made — from historical guesses about a "typical" machine, without
// heterogeneity or interference awareness, distorted by misestimation.
func (b *Baseline) reservation(t *core.Task) (nodes int, alloc cluster.Alloc) {
	w := t.W
	med := b.medianPlatform()
	wholeMed := cluster.Alloc{Cores: med.Cores, MemoryGB: med.MemoryGB}
	guessRng := b.rng.Stream("guess/" + w.ID)

	switch w.Type.Class() {
	case perfmodel.Analytics:
		// The framework's own sizing: assumed per-node rate from history
		// (+/-25%), default configuration.
		assumed := w.NodeRate(med, wholeMed, cluster.ResVec{})
		assumed = guessRng.Jitter(assumed, 0.25)
		workGuess := guessRng.Jitter(w.Genome.Work, 0.10)
		need := workGuess / math.Max(w.Target.CompletionSecs, 60) / math.Max(assumed, 1e-9)
		n := int(math.Ceil(need * b.misestimationFactor(w.ID)))
		if n < 1 {
			n = 1
		}
		if n > b.opts.MaxNodes {
			n = b.opts.MaxNodes
		}
		return n, wholeMed
	case perfmodel.LatencyCritical:
		perInstance := w.CapacityQPS([]perfmodel.NodeAlloc{{Platform: med, Alloc: wholeMed}})
		perInstance = guessRng.Jitter(perInstance, 0.30)
		n := int(math.Ceil(w.Target.QPS / math.Max(perInstance, 1) * b.misestimationFactor(w.ID)))
		if n < 1 {
			n = 1
		}
		if n > b.opts.MaxInstances {
			n = b.opts.MaxInstances
		}
		return n, wholeMed
	default:
		// Single-node users typically grab a whole machine.
		cores := int(math.Ceil(float64(med.Cores) / 2 * b.misestimationFactor(w.ID)))
		if cores < 1 {
			cores = 1
		}
		if cores > med.Cores {
			cores = med.Cores
		}
		return 1, cluster.Alloc{Cores: cores, MemoryGB: med.MemoryGB * float64(cores) / float64(med.Cores)}
	}
}

// rankServers orders the cluster's candidate servers that can take a slice
// of alloc and do not host the task yet, per the assignment policy. The
// result aliases the manager's buffer: it is valid until the next call.
func (b *Baseline) rankServers(t *core.Task, st *resState, alloc cluster.Alloc) []*cluster.Server {
	cands := b.rt.Cl.AppendCandidates(b.cands[:0])
	b.cands = cands[:0]
	servers := cands[:0]
	for _, s := range cands {
		if t.On(s.ID) {
			continue
		}
		fit := cluster.Alloc{
			Cores:    min(alloc.Cores, s.Platform.Cores),
			MemoryGB: math.Min(alloc.MemoryGB, s.Platform.MemoryGB),
		}
		if !s.Fits(fit) {
			continue
		}
		servers = append(servers, s)
	}
	switch {
	case b.opts.Assign == AssignParagon && st.est != nil:
		scored := b.scored[:0]
		for _, s := range servers {
			scored = append(scored, scoredServer{b.paragonQuality(t, st, s), s})
		}
		b.scored = scored[:0]
		sort.Slice(scored, func(i, j int) bool {
			if scored[i].quality != scored[j].quality { //lint:allow(floatcmp) sort tie-break: any consistent order is fine
				return scored[i].quality > scored[j].quality
			}
			return scored[i].srv.ID < scored[j].srv.ID
		})
		for i := range scored {
			servers[i] = scored[i].srv
		}
	default:
		sort.Slice(servers, func(i, j int) bool {
			if servers[i].FreeCores() != servers[j].FreeCores() {
				return servers[i].FreeCores() > servers[j].FreeCores()
			}
			return servers[i].ID < servers[j].ID
		})
	}
	return servers
}

// paragonQuality scores a server with heterogeneity + interference
// estimates, like Paragon's greedy server selection.
func (b *Baseline) paragonQuality(t *core.Task, st *resState, s *cluster.Server) float64 {
	pidx := s.PlatformIdx()
	whole := cluster.Alloc{Cores: s.Platform.Cores, MemoryGB: s.Platform.MemoryGB}
	return st.est.NodePerf(pidx, whole, s.PressureOn(t.W.ID))
}

// OnSubmit implements core.Manager.
func (b *Baseline) OnSubmit(t *core.Task) {
	if !t.W.Tier().Targeted() {
		if placed, _ := b.rt.PlaceFiller(t, nil); !placed {
			b.queue.Push(t)
		}
		return
	}
	st := &resState{}
	if b.engine != nil {
		// Paragon profiles the workload briefly (about a minute) before
		// assignment.
		prober := classify.NewGroundTruthProber(t.W, b.rt.Cl.Platforms, b.rng.Stream("probe/"+t.W.ID))
		st.est = b.engine.Classify(t.W, prober)
	}
	nodes, alloc := b.reservation(t)
	st.nodes, st.alloc = nodes, alloc
	if b.opts.AutoscaleServices && t.W.Type.Class() == perfmodel.LatencyCritical {
		st.nodes = 1 // auto-scaler starts at one instance
	}
	b.state[t.W.ID] = st
	if !b.tryPlace(t, st) {
		b.queue.Push(t)
	}
}

// tryPlace assigns the reserved nodes.
func (b *Baseline) tryPlace(t *core.Task, st *resState) bool {
	placed := t.NumNodes()
	want := st.nodes
	if placed >= want {
		return true
	}
	servers := b.rankServers(t, st, st.alloc)
	wholeNode := t.W.Type.Class() == perfmodel.Analytics
	for _, s := range servers {
		if placed >= want {
			break
		}
		alloc := cluster.Alloc{
			Cores:    min(st.alloc.Cores, s.FreeCores()),
			MemoryGB: math.Min(st.alloc.MemoryGB, s.FreeMemGB()),
		}
		if wholeNode {
			// Framework workers own their machines (one TaskTracker per
			// node): the reservation grabs the server's full capacity,
			// whether or not the configured task slots can use it.
			alloc = cluster.Alloc{Cores: s.FreeCores(), MemoryGB: s.FreeMemGB()}
		}
		if alloc.Cores < 1 || alloc.MemoryGB <= 0 {
			continue
		}
		if err := b.rt.Place(t, s, alloc); err == nil {
			placed++
		}
	}
	st.instances = placed
	return placed > 0
}

// OnComplete implements core.Manager.
func (b *Baseline) OnComplete(t *core.Task) {
	delete(b.state, t.W.ID)
	b.queue.Drain(b.rt.Cl, b.retry)
}

// OnEvicted implements core.Manager.
func (b *Baseline) OnEvicted(t *core.Task) { b.queue.Push(t) }

// retry is one queued task's placement attempt (core.WaitQueue.Drain's
// callback).
func (b *Baseline) retry(t *core.Task) (placed, noFit bool) {
	if !t.W.Tier().Targeted() {
		return b.rt.PlaceFiller(t, nil)
	}
	st, has := b.state[t.W.ID]
	return has && b.tryPlace(t, st), false
}

// OnTick implements core.Manager: only the auto-scaler reacts to load; the
// reservations themselves never adapt.
func (b *Baseline) OnTick(now float64) {
	if b.opts.AutoscaleServices {
		for _, t := range b.rt.Live() {
			if t.Status != core.StatusRunning || t.W.Tier() != cluster.Guaranteed {
				continue
			}
			st := b.state[t.W.ID]
			if st == nil {
				continue
			}
			b.autoscale(t, st, now)
		}
	}
	b.queue.Drain(b.rt.Cl, b.retry)
}

// The auto-scaler's triggers: add an instance above scaleUpLoad (the 70%
// trigger of §5), drop one below scaleDownLoad.
const (
	scaleUpLoad   = 0.7
	scaleDownLoad = 0.25
)

// autoscale adds an instance when observed utilization exceeds the trigger
// and removes one when it falls below the low-water mark. It observes load
// (offered/capacity), not latency — which is exactly why it misses QoS on
// spikes and under interference.
func (b *Baseline) autoscale(t *core.Task, st *resState, now float64) {
	if now-st.lastScale < 60 {
		return // scaling cools down; instances take time to start
	}
	capQPS := b.rt.TrueCapacityQPS(t)
	offered := b.rt.OfferedLoad(t)
	if capQPS <= 0 {
		return
	}
	load := offered / capQPS
	switch {
	case load > scaleUpLoad && t.NumNodes() < b.opts.MaxInstances:
		st.nodes = t.NumNodes() + 1
		st.lastScale = now
		b.tryPlace(t, st)
	case load < scaleDownLoad && t.NumNodes() > 1:
		pls := t.Placements()
		_ = b.rt.RemoveNode(t, pls[len(pls)-1].Server.ID)
		st.nodes = t.NumNodes()
		st.lastScale = now
	}
}

// QueueLen reports the wait-queue length.
func (b *Baseline) QueueLen() int { return b.queue.Len() }

var _ core.Manager = (*Baseline)(nil)
