package core

import (
	"fmt"
	"math"
	"sort"

	"quasar/internal/classify"
	"quasar/internal/cluster"
	"quasar/internal/obs"
	"quasar/internal/obs/prof"
	"quasar/internal/perfmodel"
	"quasar/internal/sched"
	"quasar/internal/sim"
	"quasar/internal/workload"
)

// QuasarOptions tunes the Quasar manager.
type QuasarOptions struct {
	// MaxNodesPerJob bounds scale-out per workload.
	MaxNodesPerJob int
	// Sched configures the greedy scheduler.
	Sched sched.Options
	// Classify configures the classification engine.
	Classify classify.Options
	// ProactivePeriodSecs is the proactive phase-probe period (600s = 10
	// minutes in the paper); 0 disables proactive probing.
	ProactivePeriodSecs float64
	// ProactiveFraction is the share of active workloads sampled per probe
	// round (0.2 in the paper).
	ProactiveFraction float64
	// DisableAdaptation freezes allocations after initial placement
	// (ablation knob).
	DisableAdaptation bool

	// EnablePartitioning lets Quasar configure hardware isolation (cache
	// partitioning, NIC rate limiting) on servers where residents'
	// tolerances are violated in partitionable resources (§4.4 extension;
	// off by default, as in the paper).
	EnablePartitioning bool
}

// DefaultQuasarOptions returns the paper's settings.
func DefaultQuasarOptions() QuasarOptions {
	return QuasarOptions{
		MaxNodesPerJob:      16,
		Sched:               sched.DefaultOptions(),
		Classify:            classify.DefaultOptions(),
		ProactivePeriodSecs: 600,
		ProactiveFraction:   0.2,
	}
}

// taskState is Quasar's per-workload knowledge.
type taskState struct {
	est         *classify.Estimates
	workEst     float64 // estimated total work (batch), from profiling
	deadline    float64 // absolute completion deadline (batch)
	below       int     // consecutive monitoring intervals under target
	stalled     int     // consecutive below-band adjustments with no growth landed
	phaseSig    int     // phase-change signals observed
	lastAdjust  float64 // time of the last allocation adjustment
	lastResched float64 // time of the last full reschedule
	lastReclass float64 // time of the last reclassification
	lastProbe   float64 // time of the last proactive interference probe

	// Offered-load trend (latency-critical workloads): the last observation
	// and its time, kept by the monitor so needPerf can provision for the
	// load expected one adjustment cooldown ahead instead of chasing a
	// rising curve from behind.
	lastOffered float64
	offeredAt   float64

	// Displacement episode (failure recovery): set when a server death took
	// at least one of the workload's nodes, cleared when capacity is
	// restored. reprofiled tracks whether a reclassification happened
	// mid-episode (the recovery path is supposed to avoid it).
	displaced   bool
	displacedAt float64
	reprofiled  bool
}

// Quasar is the paper's cluster manager: performance-target interface,
// classification-driven joint allocation/assignment, runtime monitoring
// with allocation adjustment and phase detection.
type Quasar struct {
	rt   *Runtime
	opts QuasarOptions

	engine *classify.Engine
	sch    *sched.Scheduler
	rng    *sim.RNG
	tracer *obs.Tracer

	state   map[string]*taskState
	queue   WaitQueue             // admission-control wait queue (and evicted best-effort)
	choices []classify.NodeChoice // nodeChoices' reused result buffer

	// PhaseChangesDetected counts reclassifications triggered by
	// monitoring. PhaseEvents records each with its trigger source.
	PhaseChangesDetected int
	PhaseEvents          []PhaseEvent

	// recovery aggregates the failure-recovery policy's bookkeeping
	// (see recovery.go).
	recovery RecoveryStats
}

// PhaseEvent records one detected phase change / misclassification.
type PhaseEvent struct {
	Time   float64
	TaskID string
	// Source is "reactive" (performance deviation) or "proactive"
	// (interference probe sampling).
	Source string
}

// NewQuasar builds the manager over a runtime.
func NewQuasar(rt *Runtime, opts QuasarOptions) *Quasar {
	if opts.MaxNodesPerJob <= 0 {
		opts.MaxNodesPerJob = 16
	}
	q := &Quasar{
		rt:     rt,
		opts:   opts,
		rng:    rt.RNG.Stream("quasar"),
		state:  make(map[string]*taskState),
		engine: classify.NewEngine(rt.Cl.Platforms, opts.Classify, rt.RNG.Stream("classify")),
		sch:    sched.New(rt.Cl, opts.Sched),
	}
	return q
}

// Engine exposes the classification engine (for offline seeding by
// scenarios).
func (q *Quasar) Engine() *classify.Engine { return q.engine }

// SetTracer wires the tracer through every layer the manager owns: the
// runtime's lifecycle events, the scheduler's decision events, the
// classification engine's probes, and the manager's own action events.
func (q *Quasar) SetTracer(tr *obs.Tracer) {
	q.tracer = tr
	q.sch.Tracer = tr
	q.rt.SetTracer(tr)
	q.engine.SetTracer(tr)
	if reg := tr.Registry(); reg != nil {
		reg.Gauge("quasar_queue_len", "admission-control queue length",
			func() float64 { return float64(q.queue.Len()) })
		reg.Gauge("quasar_phase_changes", "phase changes detected",
			func() float64 { return float64(q.PhaseChangesDetected) })
	}
}

// SetProfiler wires the engine self-profiler through the same layers
// SetTracer covers: the runtime's tick sweeps (and sim engine's queue core),
// the scheduler, and the classification engine.
func (q *Quasar) SetProfiler(p *prof.Profiler) {
	q.sch.Prof = p
	q.rt.SetProfiler(p)
	q.engine.SetProfiler(p)
}

// resVecSlice converts a pressure vector into the decision-payload form.
func resVecSlice(v cluster.ResVec) []float64 {
	out := make([]float64, len(v))
	copy(out, v[:])
	return out
}

// Name implements Manager.
func (q *Quasar) Name() string { return "quasar" }

// SeedLibrary adds offline-profiled workloads to the classification engine.
// Prober streams derive sequentially in library order; the dense profiling
// then fans out and the appends land in the same order, so the matrices are
// identical to one-at-a-time seeding.
func (q *Quasar) SeedLibrary(ws []*workload.Instance) {
	probers := make([]classify.Prober, len(ws))
	for i, w := range ws {
		probers[i] = classify.NewGroundTruthProber(w, q.rt.Cl.Platforms, q.rng.Stream("seed").Stream(w.ID))
	}
	q.engine.SeedOfflineMany(ws, probers)
}

// profilingDelay returns the simulated wall-clock cost of the sandboxed
// profiling runs (§3.4: 10-15s for small batch, up to ~5 min for stateful
// services).
func profilingDelay(w *workload.Instance) float64 {
	switch {
	case w.BestEffort:
		return 0
	case w.Type.Stateful():
		return 240 // state warm-up dominates
	case w.Type.Class() == perfmodel.Analytics:
		// A few map tasks to ~20% completion. Simulated job durations are
		// compressed relative to the paper's hours-long jobs, so the
		// profiling time is compressed proportionally.
		return 20
	case w.Type.Class() == perfmodel.LatencyCritical:
		return 15 // seconds of live traffic
	default:
		return 15
	}
}

// OnSubmit implements Manager: profile, classify, then jointly allocate and
// assign.
func (q *Quasar) OnSubmit(t *Task) {
	if t.W.BestEffort {
		if placed, _ := q.placeBestEffort(t); !placed {
			q.queue.Push(t)
		}
		return
	}
	t.Status = StatusProfiling
	delay := profilingDelay(t.W)
	q.rt.Eng.After(delay, func() { q.admit(t) })
}

// admit classifies and places a workload after profiling completes.
func (q *Quasar) admit(t *Task) {
	w := t.W
	st := &taskState{}
	prober := classify.NewGroundTruthProber(w, q.rt.Cl.Platforms, q.rng.Stream("probe/"+w.ID))
	st.est = q.engine.Classify(w, prober)

	if w.Type.Class() != perfmodel.LatencyCritical {
		// Work estimate from profiling progress-rate extrapolation (§3.2):
		// accurate to a few percent.
		st.workEst = q.rng.Stream("work/"+w.ID).Jitter(w.Genome.Work, 0.05)
	}
	if w.Type.Class() == perfmodel.Analytics {
		st.deadline = t.SubmitAt + w.Target.CompletionSecs
	}
	q.state[w.ID] = st

	if q.tracer.Enabled() {
		q.tracer.Instant("manager", "quasar", "admit", obs.Arg{Key: "decision", Val: obs.AdmitDecision{
			Workload: w.ID, Class: st.est.Class.String(), RefPerf: st.est.RefPerf,
			Beta: st.est.Beta(), Tol: resVecSlice(st.est.Tol), Caused: resVecSlice(st.est.Caused),
			WorkEst: st.workEst, Deadline: st.deadline,
		}})
	}
	if !q.tryPlace(t, st) {
		t.Status = StatusQueued
		q.queue.Push(t)
	}
}

// needPerf computes the performance the workload currently requires, in its
// own metric.
func (q *Quasar) needPerf(t *Task, st *taskState) float64 {
	now := q.rt.Eng.Now()
	switch t.W.Type.Class() {
	case perfmodel.Analytics:
		// The framework reports completion fraction; the profiling-derived
		// work estimate provides the scale.
		remWork := st.workEst * (1 - q.rt.ProgressFraction(t))
		if remWork <= 0 {
			return 0
		}
		remTime := st.deadline - now
		if remTime < 60 {
			remTime = 60 // past-due: allocate for max effort within bounds
		}
		return remWork / remTime
	case perfmodel.LatencyCritical:
		offered := q.rt.OfferedLoad(t)
		// Provision for where a rising load will be one adjustment cooldown
		// from now, not where it is: capacity added this interval is the
		// capacity serving the next one. Falling load is not projected —
		// reclaim goes through the conservative shrink path.
		if st.offeredAt > 0 && now > st.offeredAt {
			if slope := (offered - st.lastOffered) / (now - st.offeredAt); slope > 0 {
				offered += slope * adjustCooldownSecs
			}
		}
		floor := 0.15 * t.W.Target.QPS
		need := offered * 1.2
		if need < floor {
			need = floor
		}
		if cap := t.W.Target.QPS * 1.3; need > cap {
			need = cap
		}
		return need
	default:
		return t.W.Target.IPS
	}
}

// tryPlace runs the greedy scheduler and applies the assignment.
func (q *Quasar) tryPlace(t *Task, st *taskState) bool {
	return q.tryPlaceOpt(t, st, false)
}

// tryPlaceOpt is tryPlace with an explicit degraded-admission override:
// forcePartial waives the scheduler's minimum-fill admission check, used by
// the recovery path when the surviving cluster cannot meet full targets.
func (q *Quasar) tryPlaceOpt(t *Task, st *taskState, forcePartial bool) bool {
	maxNodes := q.opts.MaxNodesPerJob
	if !t.W.Type.Distributed() {
		maxNodes = 1
	}
	need := q.needPerf(t, st)
	if need <= 0 {
		need = 1e-6
	}
	// A workload already past its deadline, or one being rescheduled
	// mid-flight, takes whatever is available rather than waiting for the
	// full (possibly inflated) requirement.
	acceptPartial := forcePartial || t.Progress > 0 ||
		(t.W.Type.Class() == perfmodel.Analytics &&
			st.deadline > 0 && q.rt.Eng.Now() > st.deadline)
	req := &sched.Request{
		W: t.W, Est: st.est, NeedPerf: need, MaxNodes: maxNodes,
		EstOf: q.estOf, AcceptPartial: acceptPartial,
		MaxCostPerHour: t.W.MaxCostPerHour,
	}
	asn, err := q.sch.Schedule(req)
	if err != nil {
		return false
	}
	for _, ev := range asn.Evictions {
		_ = q.rt.Evict(ev)
	}
	if asn.Config != nil {
		t.W.Config = asn.Config
	}
	placed := 0
	for _, n := range asn.Nodes {
		if err := q.rt.Place(t, n.Server, n.Alloc); err == nil {
			placed++
		}
	}
	return placed > 0
}

// estOf exposes resident estimates to the scheduler's compatibility check.
func (q *Quasar) estOf(id string) *classify.Estimates {
	if st, ok := q.state[id]; ok {
		return st.est
	}
	return nil
}

// beSafeOn reports whether adding a small best-effort slice to the server
// keeps every classified resident within its interference tolerance. This
// is what lets Quasar colocate fillers aggressively without disturbing
// primary workloads (§6.3: with auto-scaling, best-effort jobs cause
// frequent QPS drops; with Quasar the service runs undisturbed).
func (q *Quasar) beSafeOn(s *cluster.Server) bool {
	const beCausedMargin = 0.12 // conservative bound for an unclassified filler
	for _, pl := range s.Placements() {
		if pl.BestEffort {
			continue
		}
		st, ok := q.state[pl.WorkloadID]
		if !ok {
			continue
		}
		existing := s.PressureOn(pl.WorkloadID)
		for r := 0; r < int(cluster.NumResources); r++ {
			if existing[r]+beCausedMargin > st.est.Tol[r]+0.05 {
				return false
			}
		}
	}
	return true
}

// placeBestEffort gives a best-effort task a small slice on the server with
// the most free cores among servers where it will not disturb primaries.
// noFit reports that no server is eligible — an answer that holds for every
// best-effort task until the cluster or the residents' estimates change.
func (q *Quasar) placeBestEffort(t *Task) (placed, noFit bool) {
	var best *cluster.Server
	for _, s := range q.rt.Cl.Servers {
		if s.Schedulable() && s.FreeCores() >= 1 && s.FreeMemGB() >= 1 && q.beSafeOn(s) {
			if best == nil || s.FreeCores() > best.FreeCores() {
				best = s
			}
		}
	}
	if best == nil {
		return false, true
	}
	alloc := cluster.Alloc{
		Cores:    minInt(4, best.FreeCores()),
		MemoryGB: math.Min(6, best.FreeMemGB()),
	}
	return q.rt.Place(t, best, alloc) == nil, false
}

// OnComplete implements Manager.
func (q *Quasar) OnComplete(t *Task) {
	delete(q.state, t.W.ID)
	q.drainQueue()
}

// OnEvicted implements Manager: evicted best-effort tasks rejoin the queue.
func (q *Quasar) OnEvicted(t *Task) {
	q.queue.Push(t)
}

// drainQueue retries queued tasks in order.
func (q *Quasar) drainQueue() { q.queue.Drain(q.rt.Cl, q.retry) }

// retry is one queued task's placement attempt (WaitQueue.Drain's callback).
func (q *Quasar) retry(t *Task) (placed, noFit bool) {
	if t.W.BestEffort {
		return q.placeBestEffort(t)
	}
	st, has := q.state[t.W.ID]
	if !has || !q.tryPlace(t, st) {
		return false, false
	}
	if st.displaced {
		q.finishReadmit(t, st, "queue-drain")
	}
	return true, false
}

// OnTick implements Manager: monitor every running workload and adjust
// allocations that deviate from their constraints (§4.1).
func (q *Quasar) OnTick(now float64) {
	if !q.opts.DisableAdaptation {
		for _, t := range q.rt.Tasks() {
			if t.Status != StatusRunning || t.W.BestEffort {
				continue
			}
			st, ok := q.state[t.W.ID]
			if !ok {
				continue
			}
			q.monitor(t, st)
		}
	}
	if q.opts.EnablePartitioning {
		q.managePartitions()
	}
	if q.opts.ProactivePeriodSecs > 0 {
		period := q.opts.ProactivePeriodSecs
		// Fire on ticks aligned with the probe period.
		tick := q.rt.opts.TickSecs
		if math.Mod(now+tick/2, period) < tick {
			q.proactiveProbe(now)
		}
	}
	q.drainQueue()
}

// adjustCooldownSecs spaces allocation adjustments: Quasar "adjusts
// allocations in a conservative manner" (§4.1).
const adjustCooldownSecs = 30

// monitor compares measured performance with the needed level and adjusts.
func (q *Quasar) monitor(t *Task, st *taskState) {
	need := q.needPerf(t, st)
	if need <= 0 {
		return
	}
	now := q.rt.Eng.Now()
	if t.W.Type.Class() == perfmodel.LatencyCritical {
		// Record the load observation after needPerf consumed the previous
		// one, so the trend always spans exactly one monitoring interval.
		st.lastOffered = q.rt.OfferedLoad(t)
		st.offeredAt = now
	}
	measured := q.rt.MeasuredPerf(t)
	// A displacement episode ends when measured performance is back at the
	// needed level (covers partial displacements healed by scale-out or by
	// surviving headroom).
	if st.displaced && measured >= 0.95*need {
		q.finishReadmit(t, st, "recovered")
	}
	// Feedback loop (§3.2): fold the measured-vs-estimated deviation back
	// into the estimates before deciding how to adjust.
	st.est.CorrectWith(measured, q.nodeChoices(t))
	switch {
	case measured < 0.95*need:
		st.below++
		if now-st.lastAdjust < adjustCooldownSecs {
			return
		}
		st.lastAdjust = now
		if q.scaleUpOrOut(t, st, need, measured) {
			st.stalled = 0
		} else {
			st.stalled++
		}
		if st.below >= 3 && now-st.lastReclass > 120 && !st.displaced {
			// Persistent shortfall: misclassification or phase change —
			// reclassify from scratch (§4.1). During a displacement episode
			// the shortfall is already explained by the lost node(s), so
			// re-profiling is suppressed: the cached signature stays valid
			// and recovery stays on the profiling-free path.
			st.lastReclass = now
			q.reclassify(t, st, "reactive")
		}
		if st.below >= 6 && st.stalled >= 3 && now-st.lastResched > 300 {
			// Adjustment is exhausted (e.g. stuck on inferior servers at
			// the node cap): reschedule from scratch with the refreshed
			// estimates ("or reclassifies and reschedules the workload
			// from scratch", §3.1). "Exhausted" is judged by what landed,
			// not by how large the shortfall is: while scale-up/out is
			// still adding resources the shortfall is lag, and tearing
			// down a service mid-rise trades real capacity for nothing.
			// Only after several adjustment rounds place nothing is a
			// fresh placement attempted — and reschedule itself keeps the
			// incumbent unless the new placement beats it.
			st.lastResched = now
			st.below = 0
			st.stalled = 0
			q.reschedule(t, st, measured)
		}
	case measured > 1.8*need:
		st.below = 0
		if now-st.lastAdjust < adjustCooldownSecs {
			return
		}
		// Never shrink a batch job that is close to its deadline or
		// nearly done: reclaiming the tail only drags it out.
		if t.W.Type.Class() == perfmodel.Analytics {
			if st.deadline-now < 300 || q.rt.ProgressFraction(t) > 0.85 {
				return
			}
		}
		st.lastAdjust = now
		q.reclaim(t, st, need, measured)
	default:
		st.below = 0
	}
}

// allocCostPerHour prices the task's current allocation.
func (q *Quasar) allocCostPerHour(t *Task) float64 {
	cost := 0.0
	for _, id := range t.Servers() {
		pl := t.placements[id]
		cost += float64(pl.Alloc.Cores) * sched.CostPerCoreHour(pl.Server.Platform)
	}
	return cost
}

// scaleUpOrOut grows the allocation: scale-up on current servers first
// (cheapest, no migration), then scale-out via the scheduler. It reports
// whether any resize or placement actually landed, so the monitor can tell
// "adjustment is still making progress" apart from "adjustment is exhausted"
// — only the latter justifies a disruptive reschedule from scratch.
func (q *Quasar) scaleUpOrOut(t *Task, st *taskState, need, measured float64) (progressed bool) {
	var actions []string
	if q.tracer.Enabled() {
		defer func() {
			if len(actions) == 0 {
				actions = []string{"none"}
			}
			q.tracer.Instant("manager", "quasar", "scale", obs.Arg{Key: "decision", Val: obs.AdjustDecision{
				Workload: t.W.ID, Need: need, Measured: measured, Actions: actions,
			}})
		}()
	}
	// Respect the workload's cost budget (§4.4): never grow past it.
	if cap := t.W.MaxCostPerHour; cap > 0 && q.allocCostPerHour(t) >= cap {
		if q.tracer.Enabled() {
			actions = append(actions, "none: at cost cap")
		}
		return
	}
	// Scale up in place.
	for _, id := range t.Servers() {
		pl := t.placements[id]
		srv := pl.Server
		freeC, freeM := srv.FreeCores(), srv.FreeMemGB()
		// Evict best-effort residents if that frees capacity. The IDs are
		// snapshotted first: each eviction shifts the live resident list the
		// range would otherwise be walking.
		if freeC == 0 {
			var fillers []string
			for _, other := range srv.Placements() {
				if other.BestEffort {
					fillers = append(fillers, other.WorkloadID)
				}
			}
			for _, id := range fillers {
				_ = q.rt.Evict(id)
			}
			freeC, freeM = srv.FreeCores(), srv.FreeMemGB()
		}
		if freeC > 0 || freeM > 1 {
			grow := cluster.Alloc{
				Cores:    pl.Alloc.Cores + minInt(freeC, pl.Alloc.Cores),
				MemoryGB: pl.Alloc.MemoryGB + math.Min(freeM, pl.Alloc.MemoryGB),
			}
			if grow.Cores > srv.Platform.Cores {
				grow.Cores = srv.Platform.Cores
			}
			// Never grow past the cost budget.
			if cap := t.W.MaxCostPerHour; cap > 0 {
				delta := float64(grow.Cores-pl.Alloc.Cores) * sched.CostPerCoreHour(srv.Platform)
				if q.allocCostPerHour(t)+delta > cap {
					continue
				}
			}
			// Only grow when the estimates expect a real benefit: doubling
			// cores a workload cannot exploit just strands them.
			pidx := q.rt.Cl.PlatformIndex(srv.Platform.Name)
			press := srv.PressureOn(t.W.ID)
			cur := st.est.NodePerf(pidx, pl.Alloc, press)
			grown := st.est.NodePerf(pidx, grow, press)
			if grown > 1.05*cur {
				if q.rt.Resize(t, srv, grow) == nil {
					progressed = true
					q.retuneConfig(t, st, grow)
					if q.tracer.Enabled() {
						actions = append(actions, fmt.Sprintf("scale-up server %d -> %dc/%gg",
							srv.ID, grow.Cores, grow.MemoryGB))
					}
				}
			}
		}
		if q.rt.MeasuredPerf(t) >= need {
			return
		}
	}
	// Scale out: ask the scheduler for the shortfall.
	if !t.W.Type.Distributed() || t.NumNodes() >= q.opts.MaxNodesPerJob {
		return
	}
	shortfall := need - measured
	if shortfall <= 0 {
		return
	}
	req := &sched.Request{
		W: t.W, Est: st.est, NeedPerf: shortfall,
		MaxNodes: q.opts.MaxNodesPerJob - t.NumNodes(),
		EstOf:    q.estOf,
	}
	if cap := t.W.MaxCostPerHour; cap > 0 {
		remaining := cap - q.allocCostPerHour(t)
		if remaining <= 0 {
			return
		}
		req.MaxCostPerHour = remaining
	}
	asn, err := q.sch.Schedule(req)
	if err != nil {
		return
	}
	for _, ev := range asn.Evictions {
		_ = q.rt.Evict(ev)
	}
	have := map[int]bool{}
	for _, id := range t.Servers() {
		have[id] = true
	}
	for _, n := range asn.Nodes {
		if have[n.Server.ID] {
			continue // already on this server; Place would fail
		}
		if q.rt.Place(t, n.Server, n.Alloc) == nil {
			progressed = true
			if q.tracer.Enabled() {
				actions = append(actions, fmt.Sprintf("scale-out +server %d %dc/%gg",
					n.Server.ID, n.Alloc.Cores, n.Alloc.MemoryGB))
			}
		}
	}
	return progressed
}

// retuneConfig re-tunes framework parameters after an in-place resize so
// mapper counts and heaps track the new allocation.
func (q *Quasar) retuneConfig(t *Task, st *taskState, alloc cluster.Alloc) {
	if t.W.Config == nil {
		return
	}
	diskSensitive := st.est.Tol[cluster.ResDiskIO] < 0.5
	cfg := classify.TunedConfig(alloc.Cores, alloc.MemoryGB, diskSensitive)
	t.W.Config = &cfg
}

// nodeChoices captures the task's live assignment in the scheduler's terms,
// in ascending server order. The monitor asks once per running task per
// tick, so the result lives in a buffer the manager owns: it is valid until
// the next call.
func (q *Quasar) nodeChoices(t *Task) []classify.NodeChoice {
	out := q.choices[:0]
	for _, id := range t.serverIDs {
		pl := t.placements[id]
		out = append(out, classify.NodeChoice{
			PlatformIdx: q.rt.Cl.PlatformIndex(pl.Server.Platform.Name),
			Alloc:       pl.Alloc,
			Pressure:    pl.Server.PressureOn(t.W.ID),
		})
	}
	q.choices = out
	return out
}

// reschedule places the workload anew with current estimates, keeping the
// result only if it beats the incumbent. Analytics frameworks keep their
// progress (completed tasks live in the DFS); stateful services migrate
// microshards, which costs milliseconds per shard and is absorbed within a
// tick.
//
// The comparison is make-before-break in effect: a reschedule fires when the
// workload is stuck, but on a saturated cluster the scheduler may well find
// *less* than the incumbent already holds — rescheduling exists to escape bad
// placements (inferior platforms, noisy neighbors), not to shrink. So the
// candidate placement is applied, *measured*, and kept only if it beats the
// incumbent's last measurement; otherwise the exact prior allocation is
// restored (its capacity was freed under the same event, so nothing can have
// claimed it in between). Measuring rather than trusting st.est matters: the
// decision to reschedule was made precisely because measurements diverged
// from what the estimates promised.
func (q *Quasar) reschedule(t *Task, st *taskState, measured float64) {
	q.tracer.Instant("manager", "quasar", "reschedule", obs.Arg{Key: "workload", Val: t.W.ID})
	type heldAlloc struct {
		srv   *cluster.Server
		alloc cluster.Alloc
	}
	ids := t.Servers()
	old := make([]heldAlloc, 0, len(ids))
	for _, id := range ids {
		pl := t.placements[id]
		old = append(old, heldAlloc{pl.Server, pl.Alloc})
	}
	q.rt.Release(t)
	if q.tryPlace(t, st) && q.rt.MeasuredPerf(t) >= measured {
		return
	}
	// Worse or no placement: put the incumbent back.
	q.rt.Release(t)
	restored := false
	for _, h := range old {
		if q.rt.Place(t, h.srv, h.alloc) == nil {
			restored = true
		}
	}
	if !restored {
		t.Status = StatusQueued
		q.queue.Push(t)
	}
}

// reclaim shrinks over-provisioned allocations, releasing idle resources
// for best-effort work.
func (q *Quasar) reclaim(t *Task, st *taskState, need, measured float64) {
	var actions []string
	if q.tracer.Enabled() {
		defer func() {
			if len(actions) == 0 {
				actions = []string{"none"}
			}
			q.tracer.Instant("manager", "quasar", "reclaim", obs.Arg{Key: "decision", Val: obs.AdjustDecision{
				Workload: t.W.ID, Need: need, Measured: measured, Actions: actions,
			}})
		}()
	}
	excess := measured / math.Max(need, 1e-9)
	if excess < 1.5 {
		return
	}
	// Drop a whole node when several are allocated; otherwise halve the
	// largest allocation. Either way, simulate the shrink against the
	// estimates first and skip it when the remainder would fall straight
	// back into scale-up territory: reclaim steps are coarse (a whole node,
	// half an allocation), and over-shrinking at a load trough costs a
	// latency excursion plus a scale-up round trip on the next rise.
	ids := t.Servers()
	if len(ids) > 1 {
		choices := q.nodeChoices(t)
		if st.est.JobPerf(choices[:len(choices)-1]) < 1.2*need {
			return
		}
		last := ids[len(ids)-1]
		if q.rt.RemoveNode(t, last) == nil && q.tracer.Enabled() {
			actions = append(actions, fmt.Sprintf("drop server %d", last))
		}
		return
	}
	pl := t.placements[ids[0]]
	if pl.Alloc.Cores > 1 {
		shrunk := cluster.Alloc{
			Cores:    maxInt(1, pl.Alloc.Cores/2),
			MemoryGB: math.Max(1, pl.Alloc.MemoryGB/2),
		}
		pidx := q.rt.Cl.PlatformIndex(pl.Server.Platform.Name)
		if st.est.NodePerf(pidx, shrunk, pl.Server.PressureOn(t.W.ID)) < 1.2*need {
			return
		}
		if q.rt.Resize(t, pl.Server, shrunk) == nil && q.tracer.Enabled() {
			actions = append(actions, fmt.Sprintf("shrink server %d -> %dc/%gg",
				pl.Server.ID, shrunk.Cores, shrunk.MemoryGB))
		}
	}
}

// reclassify re-profiles a workload in place and reschedules if the fresh
// estimates demand it.
func (q *Quasar) reclassify(t *Task, st *taskState, source string) {
	if st.displaced {
		st.reprofiled = true
	}
	q.PhaseChangesDetected++
	q.PhaseEvents = append(q.PhaseEvents, PhaseEvent{Time: q.rt.Eng.Now(), TaskID: t.W.ID, Source: source})
	if q.tracer.Enabled() {
		q.tracer.Instant(workloadTrack(t.W.ID), "quasar", "phase-change",
			obs.Arg{Key: "source", Val: source})
		q.tracer.Registry().Counter("phase_changes_total", "reclassifications triggered by monitoring").Inc()
	}
	prober := classify.NewGroundTruthProber(t.W, q.rt.Cl.Platforms, q.rng.Stream("reprobe/"+t.W.ID))
	st.est = q.engine.Reclassify(t.W, prober)
	// Fresh profiles arrive in profiling units, which for latency-critical
	// workloads differ systematically from the monitor's knee-QPS
	// measurements. Re-anchor the new estimates to the live measurement
	// immediately: otherwise every reactive reclassification wipes the
	// feedback calibration (§3.2) and the scheduler reverts to undersized
	// placements exactly when the workload is struggling.
	if t.Status == StatusRunning && t.NumNodes() > 0 {
		st.est.CorrectWith(q.rt.MeasuredPerf(t), q.nodeChoices(t))
	}
}

// proactiveProbe samples a fraction of active workloads and injects
// interference microbenchmarks to detect phase changes before they violate
// QoS (§4.1).
func (q *Quasar) proactiveProbe(now float64) {
	var running []*Task
	for _, t := range q.rt.Tasks() {
		if t.Status == StatusRunning && !t.W.BestEffort {
			running = append(running, t)
		}
	}
	if len(running) == 0 {
		return
	}
	n := int(math.Ceil(q.opts.ProactiveFraction * float64(len(running))))
	// Probe the least-recently-probed workloads first: uniform random
	// sampling can starve a workload indefinitely, while round-robin
	// coverage bounds every workload's probe interval by
	// len(running)/n probe periods at the same per-period cost.
	// Tasks() order breaks ties, so selection is deterministic.
	sort.SliceStable(running, func(i, j int) bool {
		si, sj := q.state[running[i].W.ID], q.state[running[j].W.ID]
		ti, tj := 0.0, 0.0
		if si != nil {
			ti = si.lastProbe
		}
		if sj != nil {
			tj = sj.lastProbe
		}
		return ti < tj
	})
	rng := q.rng.Stream("proactive")
	for _, t := range running[:n] {
		st := q.state[t.W.ID]
		if st == nil {
			continue
		}
		st.lastProbe = now
		// Partial in-place interference classification: re-probe three
		// random resources and compare with the standing estimates. Two of
		// three must deviate to call a phase change — a single drifted
		// resource is within measurement noise, but genuine phase changes
		// shift the whole interference profile, so the wider probe raises
		// sensitivity without loosening the per-resource threshold. The
		// relative-change denominator is floored well above the tolerance
		// ramp's quantization step: for near-zero tolerances a single probe
		// step is a huge relative swing, which is noise, not a phase.
		prober := classify.NewGroundTruthProber(t.W, q.rt.Cl.Platforms, q.rng.Stream("pp/"+t.W.ID))
		changed := 0
		for _, r := range rng.Perm(int(cluster.NumResources))[:3] {
			fresh := prober.ToleratedIntensity(cluster.Resource(r))
			old := st.est.Tol[r]
			if old > 0 && math.Abs(fresh-old)/math.Max(old, 0.2) > 0.35 {
				changed++
			}
		}
		if q.tracer.Enabled() {
			q.tracer.Instant(workloadTrack(t.W.ID), "quasar", "proactive-probe",
				obs.Arg{Key: "changed_resources", Val: changed})
		}
		if changed >= 2 {
			q.reclassify(t, st, "proactive")
		}
	}
}

// QueueLen reports the admission-control queue length.
func (q *Quasar) QueueLen() int { return q.queue.Len() }

// UpdateTarget replaces a workload's performance target at runtime — the
// live re-negotiation a long-running manager needs (raise a service's QPS
// floor, tighten a batch deadline) without resubmission. The class must not
// change; monitoring picks the new constraint up on the next tick, and an
// analytics deadline is re-anchored to the original submission time.
func (q *Quasar) UpdateTarget(id string, target workload.Target) error {
	t := q.rt.Task(id)
	if t == nil {
		return fmt.Errorf("core: target update for unknown task %s", id)
	}
	if t.W.BestEffort {
		return fmt.Errorf("core: task %s is best-effort and has no target", id)
	}
	if target.Class != t.W.Type.Class() {
		return fmt.Errorf("core: target class %v does not match task %s type %v",
			target.Class, id, t.W.Type)
	}
	if err := target.Validate(); err != nil {
		return err
	}
	t.W.Target = target
	if st, ok := q.state[id]; ok && target.Class == perfmodel.Analytics {
		st.deadline = t.SubmitAt + target.CompletionSecs
	}
	if q.tracer.Enabled() {
		q.tracer.Instant(workloadTrack(id), "quasar", "target-update",
			obs.Arg{Key: "completion_secs", Val: target.CompletionSecs},
			obs.Arg{Key: "qps", Val: target.QPS},
			obs.Arg{Key: "latency_us", Val: target.LatencyUS},
			obs.Arg{Key: "ips", Val: target.IPS})
	}
	return nil
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
