// Package sched implements Quasar's greedy joint resource allocation and
// assignment (§3.3). Given a workload's classification estimates, it ranks
// available servers by quality for this workload (platform affinity and
// current interference), then sizes the allocation — scale-up within a
// server before scale-out across servers — until the estimated performance
// meets the target, allocating the least amount of resources that does.
package sched

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"quasar/internal/classify"
	"quasar/internal/cluster"
	"quasar/internal/obs"
	"quasar/internal/obs/prof"
	"quasar/internal/perfmodel"
	"quasar/internal/workload"
)

// ErrNoCapacity signals admission control: no assignment can currently
// provide even a minimal allocation ("the scheduler employs admission
// control to prevent oversubscription when no resources are available").
var ErrNoCapacity = errors.New("sched: no capacity for workload")

// Request asks for an assignment.
type Request struct {
	W   *workload.Instance
	Est *classify.Estimates

	// NeedPerf is the performance required, in the workload's own metric:
	// estimated-work/target-time for batch, target QPS for services, the
	// IPS target for single-node workloads.
	NeedPerf float64

	// MaxNodes bounds scale-out (1 for single-node workloads).
	MaxNodes int

	// MaxCostPerHour optionally caps the resource cost of the allocation
	// (the cost-target extension of §4.4); 0 means unlimited.
	MaxCostPerHour float64

	// AcceptPartial disables the minFill admission check: the caller wants
	// the best currently available allocation even if it falls well short
	// of NeedPerf (used when rescheduling past-due workloads).
	AcceptPartial bool

	// EstOf looks up the classification estimates of a resident workload,
	// for interference compatibility checks; nil residents are treated as
	// insensitive.
	EstOf func(workloadID string) *classify.Estimates
}

// NodeAssign is one server share of an assignment.
type NodeAssign struct {
	Server *cluster.Server
	Alloc  cluster.Alloc
}

// Assignment is the scheduler's decision.
type Assignment struct {
	Nodes   []NodeAssign
	EstPerf float64
	// Evictions lists best-effort workloads that must be displaced to
	// realize the assignment.
	Evictions []string
	// Config is the tuned framework configuration for configured
	// workloads (nil otherwise).
	Config *workload.FrameworkConfig
	// CostPerHour is the resource cost of the assignment.
	CostPerHour float64
}

const (
	// perfMargin is the headroom factor applied to NeedPerf (allocate for
	// margin x need) to absorb estimation error.
	perfMargin = 1.1
	// minFill is the fraction of NeedPerf below which admission control
	// rejects the workload instead of placing a starved allocation.
	minFill = 0.25
)

// Options tunes the scheduler.
type Options struct {
	// ScaleOutFirst flips the sizing order (ablation knob; the paper
	// scales up first).
	ScaleOutFirst bool
	// IgnoreInterference disables interference-aware ranking and
	// compatibility checks (ablation knob).
	IgnoreInterference bool
	// IgnoreHeterogeneity ranks servers by free capacity only (ablation
	// knob).
	IgnoreHeterogeneity bool
}

// DefaultOptions returns production settings.
func DefaultOptions() Options { return Options{} }

// Scheduler performs greedy allocation/assignment over a cluster.
type Scheduler struct {
	Cluster *cluster.Cluster
	Opts    Options

	// Tracer, when non-nil, receives one decision event per Schedule call
	// carrying the full candidate ranking and the chosen assignment.
	Tracer *obs.Tracer

	// Prof, when non-nil, attributes Schedule's wall time to prof.SubSched.
	// Outside the determinism boundary; see internal/obs/prof.
	Prof *prof.Profiler

	// rk and srvScratch are reused across Schedule calls so ranking does
	// not reallocate per decision. The scheduler is driven from the
	// single-goroutine simulation loop, so unsynchronized reuse is safe.
	rk         ranking
	srvScratch []*cluster.Server
}

// New returns a scheduler.
func New(c *cluster.Cluster, opts Options) *Scheduler {
	return &Scheduler{Cluster: c, Opts: opts}
}

// CostPerCoreHour prices a platform's cores: faster cores cost more. The
// same pricing is used by the scheduler's cost cap and by managers checking
// a live allocation against a workload's budget.
func CostPerCoreHour(p *cluster.Platform) float64 {
	return 0.03 * p.CorePerf
}

// candidate is a ranked server.
type candidate struct {
	server    *cluster.Server
	pidx      int
	quality   float64
	freeCores int
	freeMem   float64
	pressure  float64 // max interference pressure the server puts on this workload
	compat    bool
	evictable []*cluster.Placement // best-effort residents
}

// better reports whether candidate a ranks ahead of b: higher quality, then
// the bigger machine (fewer nodes for the same estimated quality), then the
// lower server ID. Server IDs are unique, so this is a strict total order:
// the ranking depends neither on the index's traversal order nor on whether
// it was settled by sorting or by popping the heap.
func better(a, b *candidate) bool {
	if a.quality != b.quality { //lint:allow(floatcmp) ordering by value; ties fall through to the next key
		return a.quality > b.quality
	}
	ca := float64(a.server.Platform.Cores) * a.server.Platform.CorePerf
	cb := float64(b.server.Platform.Cores) * b.server.Platform.CorePerf
	if ca != cb { //lint:allow(floatcmp) ordering by value; ties fall through to the next key
		return ca > cb
	}
	return a.server.ID < b.server.ID
}

// candSorter sorts candidates best first. It lives as a field of the
// Scheduler's ranking so sort.Sort receives an interior pointer and the
// interface conversion never allocates (sort.Slice's closure would).
type candSorter struct{ cands []candidate }

func (cs *candSorter) Len() int           { return len(cs.cands) }
func (cs *candSorter) Swap(i, j int)      { cs.cands[i], cs.cands[j] = cs.cands[j], cs.cands[i] }
func (cs *candSorter) Less(i, j int) bool { return better(&cs.cands[i], &cs.cands[j]) }

// ranking is one request's candidates, ordered only as far as they are read.
// cands[:done] holds the best candidates in their final order. Once at has
// been called, cands[done:] is a heap under better, laid out backwards: heap
// index k lives in slot len(cands)-1-k, so the root is the last slot and the
// heap's last index is slot done. Because better is a total order, every
// settled prefix is the one a full sort gives.
type ranking struct {
	cands  []candidate
	done   int
	heaped bool
	sorter candSorter
}

// reset takes cands as the new ranking, nothing settled.
func (r *ranking) reset(cands []candidate) {
	r.cands, r.done, r.heaped = cands, 0, false
}

// down sifts heap index k down a heap of m entries.
func (r *ranking) down(k, m int) {
	c, last := r.cands, len(r.cands)-1
	for {
		child := 2*k + 1
		if child >= m {
			return
		}
		if right := child + 1; right < m && better(&c[last-right], &c[last-child]) {
			child = right
		}
		if !better(&c[last-child], &c[last-k]) {
			return
		}
		c[last-k], c[last-child] = c[last-child], c[last-k]
		k = child
	}
}

// at returns the candidate ranked i-th, settling positions up to i by
// popping the heap: each pop swaps the root, the best unsettled candidate,
// into slot done, which is the heap's last index, and sifts the new root
// down the one-smaller heap. The first call heapifies the unsettled tail.
func (r *ranking) at(i int) *candidate {
	if !r.heaped {
		r.heaped = true
		m := len(r.cands) - r.done
		for k := m/2 - 1; k >= 0; k-- {
			r.down(k, m)
		}
	}
	last := len(r.cands) - 1
	for r.done <= i {
		r.cands[r.done], r.cands[last] = r.cands[last], r.cands[r.done]
		r.done++
		r.down(0, len(r.cands)-r.done)
	}
	return &r.cands[i]
}

// settle orders the whole ranking: the unsettled tail holds exactly the
// candidates that rank after the settled prefix, so sorting it completes
// the full sort. Settling before any at sorts everything and builds no heap.
func (r *ranking) settle() {
	if r.done < len(r.cands) {
		r.sorter.cands = r.cands[r.done:]
		sort.Sort(&r.sorter)
		r.done = len(r.cands)
	}
}

// terms are the parts of one request's appraisal that do not depend on the
// server beyond its platform, so rankIndexed computes them once per platform
// rather than once per server.
type terms struct {
	sens   cluster.ResVec // the request's estimated sensitivity
	base   float64        // NodeBase at the whole node
	caused cluster.ResVec // pressure the request would cause on half the node
}

// appraise builds the ranked candidate for one server of the platform t
// was computed for, given its free-after-eviction capacity: the one quality
// computation of the ranking. The default quality is NodePerf at the whole
// node, in NodePerf's order of operations.
func (s *Scheduler) appraise(req *Request, t *terms, srv *cluster.Server, pidx, cores int, mem float64, evictable []*cluster.Placement) candidate {
	pressure := srv.PressureOn(req.W.ID)
	var quality float64
	switch {
	case s.Opts.IgnoreHeterogeneity && s.Opts.IgnoreInterference:
		quality = float64(cores)
	case s.Opts.IgnoreHeterogeneity:
		quality = float64(cores) * (1 - pressure.Max())
	default:
		seen := pressure
		if s.Opts.IgnoreInterference {
			seen = cluster.ResVec{}
		}
		quality = t.base
		quality *= perfmodel.InterferencePenalty(t.sens, seen)
	}
	compat := s.compatible(req, t, srv)
	if !compat {
		// Penalize rather than exclude: a colocation that would hurt
		// residents is a last resort.
		quality *= 0.05
	}
	return candidate{
		server: srv, pidx: pidx, quality: quality,
		freeCores: cores, freeMem: mem,
		pressure: pressure.Max(), compat: compat,
		evictable: evictable,
	}
}

// rank collects the candidates for this request, unordered; the ranking's
// at and settle order them as far as they are read. The ranking aliases the
// scheduler's scratch buffer and is valid until the next Schedule call.
func (s *Scheduler) rank(req *Request) *ranking {
	s.rk.reset(s.rankIndexed(req, s.rk.cands[:0]))
	return &s.rk
}

// rankIndexed appends one candidate per schedulable server with free
// capacity, read from the cluster's free-resource index: full and
// unschedulable servers (down, partitioned, or detector-suspect) are never
// visited, and pristine servers — whose ranking inputs are bit-identical
// within a platform — are appraised once per platform and stamped. Stamping
// is exact because pristine servers have exactly-zero pressure by
// construction, so the shared appraisal of a representative equals the
// appraisal of each member. The request's terms are computed only for
// platforms that have a candidate.
func (s *Scheduler) rankIndexed(req *Request, cands []candidate) []candidate {
	ix := s.Cluster.Idx()
	sens := req.Est.EstSensitivity()
	for pidx := range s.Cluster.Platforms {
		srvs, npr := ix.Append(pidx, s.srvScratch[:0])
		s.srvScratch = srvs[:0]
		if len(srvs) == 0 {
			continue
		}
		p := &s.Cluster.Platforms[pidx]
		t := terms{
			sens:   sens,
			base:   req.Est.NodeBase(pidx, cluster.Alloc{Cores: p.Cores, MemoryGB: p.MemoryGB}),
			caused: req.Est.EstCausedPressure(pidx, cluster.Alloc{Cores: p.Cores / 2, MemoryGB: p.MemoryGB / 2}),
		}
		if npr > 0 {
			srv0 := srvs[0]
			cores, mem, _ := srv0.FreeAfterEviction()
			proto := s.appraise(req, &t, srv0, pidx, cores, mem, nil)
			for _, srv := range srvs[:npr] {
				c := proto
				c.server = srv
				cands = append(cands, c)
			}
		}
		for _, srv := range srvs[npr:] {
			cores, mem, evictable := srv.FreeAfterEviction()
			cands = append(cands, s.appraise(req, &t, srv, pidx, cores, mem, evictable))
		}
	}
	return cands
}

// RankedCandidate is an externally visible snapshot of one ranked server.
type RankedCandidate struct {
	ServerID   int
	Platform   string
	Quality    float64
	FreeCores  int
	FreeMemGB  float64
	Pressure   float64
	Compatible bool
	Evictable  []string
}

// RankCandidates ranks the cluster for the request and returns a snapshot
// of the ordering. It does not mutate the cluster. Intended for diagnostics
// and probes; Schedule uses the internal ranking directly.
func (s *Scheduler) RankCandidates(req *Request) []RankedCandidate {
	rk := s.rank(req)
	rk.settle()
	cands := rk.cands
	out := make([]RankedCandidate, len(cands))
	for i, c := range cands {
		rc := RankedCandidate{
			ServerID: c.server.ID, Platform: c.server.Platform.Name,
			Quality: c.quality, FreeCores: c.freeCores, FreeMemGB: c.freeMem,
			Pressure: c.pressure, Compatible: c.compat,
		}
		for _, ev := range c.evictable {
			rc.Evictable = append(rc.Evictable, ev.WorkloadID)
		}
		out[i] = rc
	}
	return out
}

// compatible reports whether placing the request's workload on the server
// would keep every targeted resident within its interference tolerance
// ("colocate workloads that do not interfere with each other"), given the
// pressure t.caused the workload would add.
func (s *Scheduler) compatible(req *Request, t *terms, srv *cluster.Server) bool {
	if s.Opts.IgnoreInterference || req.EstOf == nil {
		return true
	}
	for _, pl := range srv.Placements() {
		if !pl.Tier.Targeted() {
			continue
		}
		res := req.EstOf(pl.WorkloadID)
		if res == nil {
			continue
		}
		existing := srv.PressureOn(pl.WorkloadID)
		for r := 0; r < int(cluster.NumResources); r++ {
			if existing[r]+t.caused[r] > res.Tol[r]+0.05 {
				return false
			}
		}
	}
	return true
}

// memGrid is the quantized memory ladder used when right-sizing.
var memGrid = []float64{1, 2, 4, 8, 12, 16, 24, 32, 48, 64}

// coreGrid is the quantized scale-up ladder of core counts.
var coreGrid = [...]int{1, 2, 4, 6, 8, 12, 16, 20, 24, 32}

// sizeOption is one feasible right-sized allocation with its estimated
// performance.
type sizeOption struct {
	alloc cluster.Alloc
	perf  float64
}

// rightSizeAlloc picks the smallest allocation on a candidate that achieves
// perf >= want there, or the largest achievable if none does. It walks the
// quantized scale-up grid: cores ascending, and for each core count the
// least memory within 95% of the best for that count (freeing memory the
// workload does not need).
func (s *Scheduler) rightSizeAlloc(req *Request, cand *candidate, want float64) (cluster.Alloc, float64) {
	pressure := cand.server.PressureOn(req.W.ID)
	if s.Opts.IgnoreInterference {
		pressure = cluster.ResVec{}
	}
	// First pass: the right-sized (least-memory) allocation and its
	// estimated performance at each feasible core count. The buffer is a
	// stack array: at most one option per grid rung.
	var optBuf [len(coreGrid)]sizeOption
	opts := optBuf[:0]
	for _, c := range coreGrid {
		if c > cand.freeCores || c > cand.server.Platform.Cores {
			continue
		}
		// Most memory we could give at this core count.
		maxMem := math.Min(cand.freeMem, cand.server.Platform.MemoryGB)
		if maxMem <= 0 {
			continue
		}
		// Configured frameworks have a known per-node memory footprint
		// (one heap per mapper); never right-size below it — the scale-up
		// estimates are too coarse to see that cliff reliably.
		memFloor := 1.0
		if req.W.Config != nil {
			memFloor = float64(c)*0.5 + 0.5
		}
		top := req.Est.NodePerf(cand.pidx, cluster.Alloc{Cores: c, MemoryGB: maxMem}, pressure)
		// Least memory within 95% of top for this core count.
		alloc := cluster.Alloc{Cores: c, MemoryGB: maxMem}
		perf := top
		for _, m := range memGrid {
			if m > maxMem {
				break
			}
			if m < memFloor {
				continue
			}
			pf := req.Est.NodePerf(cand.pidx, cluster.Alloc{Cores: c, MemoryGB: m}, pressure)
			if pf >= 0.95*top {
				alloc = cluster.Alloc{Cores: c, MemoryGB: m}
				perf = pf
				break
			}
		}
		opts = append(opts, sizeOption{alloc, perf})
		if perf >= want {
			return alloc, perf
		}
	}
	if len(opts) == 0 {
		return cluster.Alloc{}, 0
	}
	// The want level is unattainable here. Allocating ever more cores for
	// vanishing marginal gain is pure waste (a low-parallelism workload
	// cannot use them): settle for the smallest allocation within 95% of
	// this server's best.
	best := 0.0
	for _, o := range opts {
		if o.perf > best {
			best = o.perf
		}
	}
	for _, o := range opts {
		if o.perf >= 0.95*best {
			return o.alloc, o.perf
		}
	}
	return opts[len(opts)-1].alloc, opts[len(opts)-1].perf
}

// emitDecision records the full Schedule outcome — every ranked candidate's
// inputs plus the picks — on the tracer. It is only called when the tracer is
// enabled, so callers on the hot path pay a single nil check.
func (s *Scheduler) emitDecision(req *Request, want float64, cands []candidate, asn *Assignment, outcome string) {
	d := obs.ScheduleDecision{
		Workload: req.W.ID, NeedPerf: req.NeedPerf, Want: want,
		MaxNodes: req.MaxNodes, AcceptPartial: req.AcceptPartial,
		MaxCost: req.MaxCostPerHour, Outcome: outcome,
	}
	if asn != nil {
		d.EstPerf, d.CostPerHour, d.Evictions = asn.EstPerf, asn.CostPerHour, asn.Evictions
		d.Picks = make([]obs.NodePick, 0, len(asn.Nodes))
		for _, na := range asn.Nodes {
			d.Picks = append(d.Picks, obs.NodePick{
				Server: na.Server.ID, Cores: na.Alloc.Cores,
				MemGB: na.Alloc.MemoryGB,
			})
		}
	}
	// An assignment holds at most MaxNodes nodes, so membership is a short
	// scan, not a map built per decision.
	picked := func(id int) bool {
		for i := range d.Picks {
			if d.Picks[i].Server == id {
				return true
			}
		}
		return false
	}
	// Full rankings scale with cluster size — O(servers) per decision on an
	// unpacked cluster — so when the tracer's controls cap candidates, build
	// only what truncation would keep: the first TopK in rank order plus
	// every picked server, recording the drop count up front. The payload is
	// byte-identical to truncating the full build; this just skips
	// materializing thousands of candidates that truncate would discard.
	if k := s.Tracer.Controls().TopK; k > 0 && len(cands) > k {
		kept := cands[:k:k]
		for _, c := range cands[k:] {
			if picked(c.server.ID) {
				kept = append(kept, c)
			}
		}
		d.CandidatesDropped = len(cands) - len(kept)
		cands = kept
	}
	// No ranking (bad request, empty cluster) stays a nil slice: the trace
	// records it as null, not [].
	if len(cands) > 0 {
		d.Candidates = make([]obs.Candidate, 0, len(cands))
	}
	for _, c := range cands {
		d.Candidates = append(d.Candidates, obs.Candidate{
			Server: c.server.ID, Platform: c.server.Platform.Name,
			Quality: c.quality, FreeCores: c.freeCores, FreeMemGB: c.freeMem,
			Evictable: len(c.evictable), Compatible: c.compat,
			Pressure: c.pressure, Picked: picked(c.server.ID),
		})
	}
	s.Tracer.Instant("manager", "sched", "decision", obs.Arg{Key: "decision", Val: d})
	s.Tracer.Registry().Counter("sched_decisions_total", "Schedule calls").Inc()
	if outcome != obs.OutcomePlaced {
		s.Tracer.Registry().Counter("sched_rejections_total", "Schedule calls rejected by admission control").Inc()
	}
}

// Schedule computes an assignment for the request. It does not mutate the
// cluster; the caller places the returned nodes (after performing the
// returned evictions).
func (s *Scheduler) Schedule(req *Request) (*Assignment, error) {
	t0 := s.Prof.Begin()
	defer s.Prof.End(prof.SubSched, t0)
	if req.NeedPerf <= 0 {
		if s.Tracer.Enabled() {
			s.emitDecision(req, 0, nil, nil, obs.OutcomeBadRequest)
		}
		return nil, fmt.Errorf("sched: request for %s with NeedPerf %v", req.W.ID, req.NeedPerf)
	}
	maxNodes := req.MaxNodes
	if maxNodes <= 0 {
		maxNodes = 1
	}
	want := req.NeedPerf * perfMargin
	rk := s.rank(req)
	if len(rk.cands) == 0 {
		if s.Tracer.Enabled() {
			s.emitDecision(req, want, nil, nil, obs.OutcomeNoCapacity)
		}
		return nil, ErrNoCapacity
	}
	if s.Tracer.Enabled() {
		// The decision event records the full ranking.
		rk.settle()
	}

	asn := &Assignment{}
	sumPerf := 0.0

	// Only the candidates read here are settled.
	for ci := 0; ci < len(rk.cands) && len(asn.Nodes) < maxNodes; ci++ {
		cand := rk.at(ci)
		n := len(asn.Nodes) + 1
		// Remaining per-node need if this is the last node we add.
		remaining := want/req.Est.ScaleOutEff(n) - sumPerf
		if remaining <= 0 {
			break
		}
		var alloc cluster.Alloc
		var perf float64
		if s.Opts.ScaleOutFirst {
			// Ablation: spread minimal slices across many servers.
			alloc = cluster.Alloc{
				Cores:    min(2, cand.freeCores),
				MemoryGB: math.Min(cand.freeMem, 4),
			}
			if !alloc.Valid() {
				continue
			}
			pressure := cand.server.PressureOn(req.W.ID)
			perf = req.Est.NodePerf(cand.pidx, alloc, pressure)
		} else {
			alloc, perf = s.rightSizeAlloc(req, cand, remaining)
		}
		if !alloc.Valid() || perf <= 0 {
			continue
		}
		cost := float64(alloc.Cores) * CostPerCoreHour(cand.server.Platform)
		if req.MaxCostPerHour > 0 && asn.CostPerHour+cost > req.MaxCostPerHour {
			continue
		}
		asn.Nodes = append(asn.Nodes, NodeAssign{Server: cand.server, Alloc: alloc})
		asn.CostPerHour += cost
		sumPerf += perf
		for _, ev := range cand.evictable {
			// Only evict what the allocation actually needs.
			if alloc.Cores > cand.server.FreeCores() || alloc.MemoryGB > cand.server.FreeMemGB() {
				asn.Evictions = append(asn.Evictions, ev.WorkloadID)
			}
		}
		if sumPerf*req.Est.ScaleOutEff(len(asn.Nodes)) >= want {
			break
		}
	}

	if len(asn.Nodes) == 0 {
		if s.Tracer.Enabled() {
			s.emitDecision(req, want, rk.cands, nil, obs.OutcomeNoCapacity)
		}
		return nil, ErrNoCapacity
	}
	asn.EstPerf = sumPerf * req.Est.ScaleOutEff(len(asn.Nodes))
	if !req.AcceptPartial && asn.EstPerf < req.NeedPerf*minFill {
		if s.Tracer.Enabled() {
			s.emitDecision(req, want, rk.cands, asn, obs.OutcomeBelowMinFill)
		}
		return nil, ErrNoCapacity
	}

	if req.W.Config != nil {
		// Tune framework parameters for the chosen per-node allocation
		// (Table 3): mappers per allocated core, right-sized heap, gzip
		// for disk-sensitive jobs.
		first := asn.Nodes[0]
		diskSensitive := req.Est.Tol[cluster.ResDiskIO] < 0.5
		cfg := classify.TunedConfig(first.Alloc.Cores, first.Alloc.MemoryGB, diskSensitive)
		asn.Config = &cfg
	}
	if s.Tracer.Enabled() {
		s.emitDecision(req, want, rk.cands, asn, obs.OutcomePlaced)
	}
	return asn, nil
}
