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

	// AcceptPartial disables the MinFill admission check: the caller wants
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

// Options tunes the scheduler.
type Options struct {
	// PerfMargin is the headroom factor applied to NeedPerf (allocate for
	// margin x need) to absorb estimation error; 1.1 by default.
	PerfMargin float64
	// MinFill is the fraction of NeedPerf below which admission control
	// rejects the workload instead of placing a starved allocation.
	MinFill float64
	// ScaleOutFirst flips the sizing order (ablation knob; the paper
	// scales up first).
	ScaleOutFirst bool
	// IgnoreInterference disables interference-aware ranking and
	// compatibility checks (ablation knob).
	IgnoreInterference bool
	// IgnoreHeterogeneity ranks servers by free capacity only (ablation
	// knob).
	IgnoreHeterogeneity bool

	// SpreadZones makes multi-node assignments prefer servers in fault
	// zones the workload does not occupy yet (§4.4 fault-zone extension):
	// among near-equal candidates, a new zone wins.
	SpreadZones bool
}

// DefaultOptions returns production settings.
func DefaultOptions() Options {
	return Options{PerfMargin: 1.1, MinFill: 0.25}
}

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

	// candBuf, srvScratch, and zoneScratch are reused across Schedule calls
	// so ranking does not reallocate per decision. The scheduler is driven
	// from the single-goroutine simulation loop, so unsynchronized reuse is
	// safe.
	candBuf     []candidate
	srvScratch  []*cluster.Server
	sorter      candSorter
	zoneScratch map[int]bool
}

// New returns a scheduler.
func New(c *cluster.Cluster, opts Options) *Scheduler {
	if opts.PerfMargin <= 0 {
		opts.PerfMargin = 1.1
	}
	if opts.MinFill <= 0 {
		opts.MinFill = 0.25
	}
	return &Scheduler{Cluster: c, Opts: opts, zoneScratch: make(map[int]bool)}
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

// candSorter sorts ranked candidates by decreasing quality. It lives as a
// field on the Scheduler so sort.Sort receives an interior pointer and the
// interface conversion never allocates (sort.Slice's closure would).
type candSorter struct{ cands []candidate }

func (cs *candSorter) Len() int      { return len(cs.cands) }
func (cs *candSorter) Swap(i, j int) { cs.cands[i], cs.cands[j] = cs.cands[j], cs.cands[i] }

func (cs *candSorter) Less(i, j int) bool {
	cands := cs.cands
	if cands[i].quality != cands[j].quality { //lint:allow(floatcmp) sort tie-break: any consistent order is fine
		return cands[i].quality > cands[j].quality
	}
	// Tie-break toward bigger machines (fewer nodes for the same
	// estimated quality), then by ID for determinism.
	ci := float64(cands[i].server.Platform.Cores) * cands[i].server.Platform.CorePerf
	cj := float64(cands[j].server.Platform.Cores) * cands[j].server.Platform.CorePerf
	if ci != cj { //lint:allow(floatcmp) sort tie-break: any consistent order is fine
		return ci > cj
	}
	return cands[i].server.ID < cands[j].server.ID
}

// appraise builds the ranked candidate for one server given its
// free-after-eviction capacity: the one quality computation of the ranking.
func (s *Scheduler) appraise(req *Request, srv *cluster.Server, pidx, cores int, mem float64, evictable []*cluster.Placement) candidate {
	var quality float64
	switch {
	case s.Opts.IgnoreHeterogeneity && s.Opts.IgnoreInterference:
		quality = float64(cores)
	case s.Opts.IgnoreHeterogeneity:
		pen := 1 - srv.PressureOn(req.W.ID).Max()
		quality = float64(cores) * pen
	default:
		pressure := srv.PressureOn(req.W.ID)
		if s.Opts.IgnoreInterference {
			pressure = cluster.ResVec{}
		}
		whole := cluster.Alloc{Cores: srv.Platform.Cores, MemoryGB: srv.Platform.MemoryGB}
		quality = req.Est.NodePerf(pidx, whole, pressure)
	}
	compat := s.compatible(req, srv)
	if !compat {
		// Penalize rather than exclude: a colocation that would hurt
		// residents is a last resort.
		quality *= 0.05
	}
	return candidate{
		server: srv, pidx: pidx, quality: quality,
		freeCores: cores, freeMem: mem,
		pressure: srv.PressureOn(req.W.ID).Max(), compat: compat,
		evictable: evictable,
	}
}

// rank orders servers by decreasing quality for this request. The
// comparator is a total order (quality, then whole-node capacity, then
// server ID), so the ordering does not depend on the index's traversal
// order. The returned slice aliases the scheduler's scratch buffer and is
// valid until the next Schedule call.
func (s *Scheduler) rank(req *Request) []candidate {
	cands := s.rankIndexed(req, s.candBuf[:0])
	s.candBuf = cands
	s.sorter.cands = cands
	sort.Sort(&s.sorter)
	return cands
}

// rankIndexed appends one candidate per schedulable server with free
// capacity, read from the cluster's free-resource index: full and
// unschedulable servers (down, partitioned, or detector-suspect) are never
// visited, and pristine servers — whose ranking inputs are bit-identical
// within a platform — are appraised once per platform and stamped. Stamping
// is exact because pristine servers have exactly-zero pressure by
// construction, so the shared appraisal of a representative equals the
// appraisal of each member.
func (s *Scheduler) rankIndexed(req *Request, cands []candidate) []candidate {
	ix := s.Cluster.Idx()
	for pidx := range s.Cluster.Platforms {
		prs := ix.AppendPristine(pidx, s.srvScratch[:0])
		if len(prs) > 0 {
			srv0 := prs[0]
			cores, mem, _ := srv0.FreeAfterEviction()
			proto := s.appraise(req, srv0, pidx, cores, mem, nil)
			for _, srv := range prs {
				c := proto
				c.server = srv
				cands = append(cands, c)
			}
		}
		occ := ix.AppendOccupiable(pidx, prs[:0])
		for _, srv := range occ {
			cores, mem, evictable := srv.FreeAfterEviction()
			cands = append(cands, s.appraise(req, srv, pidx, cores, mem, evictable))
		}
		s.srvScratch = occ[:0]
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
	cands := s.rank(req)
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
// would keep every non-best-effort resident within its interference
// tolerance ("colocate workloads that do not interfere with each other").
func (s *Scheduler) compatible(req *Request, srv *cluster.Server) bool {
	if s.Opts.IgnoreInterference || req.EstOf == nil {
		return true
	}
	caused := req.Est.EstCausedPressure(
		s.Cluster.PlatformIndex(srv.Platform.Name),
		cluster.Alloc{Cores: srv.Platform.Cores / 2, MemoryGB: srv.Platform.MemoryGB / 2})
	for _, pl := range srv.Placements() {
		if pl.BestEffort {
			continue
		}
		res := req.EstOf(pl.WorkloadID)
		if res == nil {
			continue
		}
		existing := srv.PressureOn(pl.WorkloadID)
		for r := 0; r < int(cluster.NumResources); r++ {
			if existing[r]+caused[r] > res.Tol[r]+0.05 {
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
func (s *Scheduler) rightSizeAlloc(req *Request, cand candidate, want float64) (cluster.Alloc, float64) {
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
	want := req.NeedPerf * s.Opts.PerfMargin
	cands := s.rank(req)
	if len(cands) == 0 {
		if s.Tracer.Enabled() {
			s.emitDecision(req, want, nil, nil, obs.OutcomeNoCapacity)
		}
		return nil, ErrNoCapacity
	}

	asn := &Assignment{}
	sumPerf := 0.0
	if s.zoneScratch == nil {
		s.zoneScratch = make(map[int]bool)
	}
	clear(s.zoneScratch)
	usedZones := s.zoneScratch

	for ci := 0; ci < len(cands); ci++ {
		cand := cands[ci]
		if len(asn.Nodes) >= maxNodes {
			break
		}
		if s.Opts.SpreadZones && usedZones[cand.server.Zone] {
			// Prefer a near-equal candidate in a fresh fault zone: scan
			// ahead within 10% quality for one.
			for cj := ci + 1; cj < len(cands); cj++ {
				if cands[cj].quality < 0.9*cand.quality {
					break
				}
				if !usedZones[cands[cj].server.Zone] {
					cands[ci], cands[cj] = cands[cj], cands[ci]
					cand = cands[ci]
					break
				}
			}
		}
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
		usedZones[cand.server.Zone] = true
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
			s.emitDecision(req, want, cands, nil, obs.OutcomeNoCapacity)
		}
		return nil, ErrNoCapacity
	}
	asn.EstPerf = sumPerf * req.Est.ScaleOutEff(len(asn.Nodes))
	if !req.AcceptPartial && asn.EstPerf < req.NeedPerf*s.Opts.MinFill {
		if s.Tracer.Enabled() {
			s.emitDecision(req, want, cands, asn, obs.OutcomeBelowMinFill)
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
		s.emitDecision(req, want, cands, asn, obs.OutcomePlaced)
	}
	return asn, nil
}
