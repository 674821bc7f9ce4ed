package baselines

import (
	"math"
	"sort"

	"quasar/internal/cluster"
	"quasar/internal/core"
	"quasar/internal/perfmodel"
	"quasar/internal/sim"
)

// DRF is a Mesos-style Dominant Resource Fairness allocator (Ghodsi et al.,
// the paper's [27]): workloads declare per-node demands, and the manager
// repeatedly grants one node-slice to the workload with the smallest
// dominant share (its largest resource share of the cluster) until demand
// or capacity is exhausted. Like every reservation-family baseline it
// neither right-sizes against performance targets nor considers
// heterogeneity or interference — it is *fair*, not QoS-aware, which is
// exactly the contrast the paper draws with Mesos-managed clusters.
type DRF struct {
	rt  *core.Runtime
	rng *sim.RNG

	// Misestimate applies the Fig. 1d demand-error distribution.
	Misestimate bool
	// MaxNodes bounds any workload's node count.
	MaxNodes int

	state map[string]*drfState
}

type drfState struct {
	task      *core.Task
	demand    cluster.Alloc // per node
	wantNodes int
}

// NewDRF builds the fair-share manager.
func NewDRF(rt *core.Runtime, misestimate bool, maxNodes int) *DRF {
	if maxNodes <= 0 {
		maxNodes = 8
	}
	return &DRF{
		rt: rt, rng: rt.RNG.Stream("drf"),
		Misestimate: misestimate, MaxNodes: maxNodes,
		state: make(map[string]*drfState),
	}
}

// Name implements core.Manager.
func (d *DRF) Name() string { return "mesos-drf" }

// demandOf derives the workload's declared per-node demand and node count,
// reusing the reservation heuristics (frameworks/users declare demands the
// same way they declare reservations).
func (d *DRF) demandOf(t *core.Task) (cluster.Alloc, int) {
	w := t.W
	ps := d.rt.Cl.Platforms
	med := ps[len(ps)/2]
	perNode := cluster.Alloc{Cores: min(med.Cores, 8), MemoryGB: math.Min(med.MemoryGB, 16)}
	nodes := 1
	if w.Type.Distributed() {
		switch w.Type.Class() {
		case perfmodel.Analytics:
			nodes = 2 + int(w.Genome.Work/1e5)
		default:
			nodes = 2
		}
	}
	if d.Misestimate {
		f := d.rng.Stream("mis/"+w.ID).Uniform(0.5, 3)
		nodes = int(math.Ceil(float64(nodes) * f))
	}
	if nodes > d.MaxNodes {
		nodes = d.MaxNodes
	}
	if nodes < 1 {
		nodes = 1
	}
	return perNode, nodes
}

// OnSubmit implements core.Manager.
func (d *DRF) OnSubmit(t *core.Task) {
	if !t.W.Tier().Targeted() {
		// DRF treats everyone as a first-class tenant; best-effort tasks
		// simply declare a minimal demand.
		d.state[t.W.ID] = &drfState{task: t, demand: cluster.Alloc{Cores: 1, MemoryGB: 2}, wantNodes: 1}
	} else {
		demand, nodes := d.demandOf(t)
		d.state[t.W.ID] = &drfState{task: t, demand: demand, wantNodes: nodes}
	}
	d.allocateRound()
}

// OnComplete implements core.Manager.
func (d *DRF) OnComplete(t *core.Task) {
	delete(d.state, t.W.ID)
	d.allocateRound()
}

// OnEvicted implements core.Manager.
func (d *DRF) OnEvicted(t *core.Task) { d.allocateRound() }

// OnTick implements core.Manager.
func (d *DRF) OnTick(now float64) { d.allocateRound() }

// dominantShare returns the workload's current dominant share of cluster
// resources.
func (d *DRF) dominantShare(st *drfState) float64 {
	totalCores := float64(d.rt.Cl.TotalCores())
	totalMem := d.rt.Cl.TotalMemGB()
	cores, mem := 0.0, 0.0
	for _, pl := range st.task.Placements() {
		cores += float64(pl.Alloc.Cores)
		mem += pl.Alloc.MemoryGB
	}
	return math.Max(cores/totalCores, mem/totalMem)
}

// allocateRound grants node-slices to the lowest-dominant-share workloads
// until nothing more fits or every demand is satisfied.
func (d *DRF) allocateRound() {
	// Deterministic candidate ordering.
	ids := make([]string, 0, len(d.state))
	for id := range d.state {
		ids = append(ids, id)
	}
	sort.Strings(ids)

	for granted := true; granted; {
		granted = false
		// Pick the unsatisfied workload with the smallest dominant share.
		bestID := ""
		bestShare := math.Inf(1)
		for _, id := range ids {
			st := d.state[id]
			if st.task.Status == core.StatusCompleted || st.task.NumNodes() >= st.wantNodes {
				continue
			}
			if s := d.dominantShare(st); s < bestShare {
				bestShare, bestID = s, id
			}
		}
		if bestID == "" {
			return
		}
		st := d.state[bestID]
		// The emptiest server that can host one slice and does not
		// already host the workload.
		srv := d.rt.Cl.MostFree(func(s *cluster.Server) bool { return !st.task.On(s.ID) })
		if srv != nil {
			alloc := cluster.Alloc{
				Cores:    min(st.demand.Cores, srv.FreeCores()),
				MemoryGB: math.Min(st.demand.MemoryGB, srv.FreeMemGB()),
			}
			if d.rt.Place(st.task, srv, alloc) == nil {
				granted = true
				continue
			}
		}
		// Nothing fits for the lowest-share workload: DRF blocks rather
		// than skipping ahead (progressive filling).
		return
	}
}

var _ core.Manager = (*DRF)(nil)
