// Package core contains the simulated cluster runtime and the Quasar
// manager itself. The runtime executes workloads against the ground-truth
// performance model: it integrates batch progress, serves offered load on
// latency services, maintains interference pressure on servers, and samples
// utilization — the "physical world" every manager (Quasar and the
// baselines) operates in through the same narrow interface.
package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"quasar/internal/cluster"
	"quasar/internal/loadgen"
	"quasar/internal/metrics"
	"quasar/internal/obs"
	"quasar/internal/obs/prof"
	"quasar/internal/perfmodel"
	"quasar/internal/sim"
	"quasar/internal/workload"
)

// Status is a task's lifecycle state.
type Status int

const (
	StatusQueued Status = iota
	StatusProfiling
	StatusRunning
	StatusCompleted
	StatusRejected
)

func (s Status) String() string {
	switch s {
	case StatusQueued:
		return "queued"
	case StatusProfiling:
		return "profiling"
	case StatusRunning:
		return "running"
	case StatusCompleted:
		return "completed"
	case StatusRejected:
		return "rejected"
	}
	return fmt.Sprintf("status(%d)", int(s))
}

// Task is a submitted workload plus its runtime state.
type Task struct {
	W      *workload.Instance
	Status Status

	SubmitAt float64
	// StartAt is when the current run began: Place rewrites it each time a
	// queued task is placed, a displaced one's re-admission included.
	// FirstStartAt is the first placement's time and is written once.
	StartAt      float64
	FirstStartAt float64
	DoneAt       float64

	// Progress is completed work units (batch workloads).
	Progress float64

	// Load is the offered-load pattern for latency services, fixed at
	// Submit.
	Load loadgen.Pattern

	// Service statistics, updated every tick while running. Submit
	// allocates QoSFrac and LatencyDist by class: every latency-critical
	// task, best-effort or not, has both; for analytics and single-node
	// tasks, which never record a sample, both are nil.
	LastAchievedQPS float64
	LastOfferedQPS  float64
	LastP99US       float64
	QoSFrac         *metrics.Series    // fraction of queries meeting QoS per tick
	LatencyDist     *metrics.Histogram // streaming per-tick p99 samples, O(buckets) memory

	// UsedPlatforms accumulates the names of the platforms the task was
	// ever placed on, sorted (Table 3's "server type" row).
	UsedPlatforms []string

	// PeakCores is the largest simultaneous core allocation observed.
	PeakCores int

	// placements ascend by server ID, so per-tick sweeps iterate
	// deterministically without sorting.
	placements []*cluster.Placement
	qosState   int8 // 0 unknown, 1 meeting QoS, -1 missing (trace edge detection)
	started    bool // FirstStartAt is set
	pos        int  // index in Runtime.Tasks(), written once by Submit

	// truth memoises the task's ground-truth rate (see Runtime.truthValid);
	// offered memoises Load at the sim instant offeredAt (NaN before the
	// first reading).
	truth              truthMemo
	offered, offeredAt float64
}

// truthMemo is a task's memoised JobRate(nodesOf(t)) together with what it
// was computed from.
type truthMemo struct {
	rate float64
	gen  uint64                    // Cluster.Gen() when rate was computed
	cfg  *workload.FrameworkConfig // W.Config when rate was computed
	ok   bool                      // false until computed and after Place, RemoveNode or ShiftPhase
}

// Pos returns the task's index in Runtime.Tasks(): its submission ordinal,
// fixed for the whole run. Per-task state kept outside the runtime can be
// indexed by it instead of by workload ID.
func (t *Task) Pos() int { return t.pos }

// Placements returns the task's placements in ascending server-ID order.
// The slice is the task's own — callers must not mutate it; it is valid
// until the next Place or RemoveNode on this task.
func (t *Task) Placements() []*cluster.Placement { return t.placements }

// placementIdx finds the task's placement on server id: its index, or
// where it would be inserted.
func (t *Task) placementIdx(id int) (int, bool) {
	return slices.BinarySearchFunc(t.placements, id, func(pl *cluster.Placement, id int) int {
		return cmp.Compare(pl.Server.ID, id)
	})
}

// NumNodes returns the current allocation width.
func (t *Task) NumNodes() int { return len(t.placements) }

// TotalCores returns the currently allocated cores.
func (t *Task) TotalCores() int {
	n := 0
	for _, pl := range t.placements {
		n += pl.Alloc.Cores
	}
	return n
}

// Manager is the decision-maker plugged into the runtime. The runtime
// drives it with arrival, completion, and tick callbacks; the manager acts
// through the runtime's placement API.
type Manager interface {
	Name() string
	// OnSubmit is called when a workload arrives.
	OnSubmit(t *Task)
	// OnComplete is called when a batch workload finishes.
	OnComplete(t *Task)
	// OnEvicted is called when one of the manager's placements was evicted
	// by the runtime on another manager action.
	OnEvicted(t *Task)
	// OnTick is called every monitoring interval.
	OnTick(now float64)
}

// Options configures the runtime.
type Options struct {
	TickSecs   float64 // progress/monitoring granularity (default 5s)
	SampleSecs float64 // utilization sampling period (default 60s); 0 disables
	Seed       int64
}

// Runtime is the simulated cluster world.
type Runtime struct {
	Eng *sim.Engine
	Cl  *cluster.Cluster
	RNG *sim.RNG

	// measureRNG is the measurement-noise stream, derived once at
	// construction: deriving a stream draws from the root RNG and builds a
	// new generator, which is too expensive (and pointless) per observation.
	measureRNG *sim.RNG

	// Trace, when non-nil, receives task-lifecycle events: submissions,
	// per-server placement spans, resizes, evictions, completions, and QoS
	// transitions. All emission happens on the sim goroutine.
	Trace *obs.Tracer

	// Prof, when non-nil, attributes the tick/sample sweeps' wall time to
	// prof.SubRuntime. Outside the determinism boundary; see internal/obs/prof.
	Prof *prof.Profiler

	opts    Options
	manager Manager

	tasks map[string]*Task
	// ordered holds every task in submission order, append-only.
	ordered []*Task
	// live holds the tasks not yet completed, in submission order: Submit
	// appends, and each tick sweep drops the completed ones at its end.
	live []*Task

	// CPUHeat, MemHeat, DiskHeat sample per-server utilization over time
	// (Figs. 7, 10, 11). AllocSeries and UsedSeries track aggregate
	// allocated vs actually-used cores (Fig. 11d).
	CPUHeat     *metrics.Heatmap
	MemHeat     *metrics.Heatmap
	DiskHeat    *metrics.Heatmap
	AllocSeries metrics.Series
	UsedSeries  metrics.Series

	// Failure-detector state (nil/empty until EnableFailureDetector):
	// detOpts holds the thresholds, missed counts consecutive missed
	// heartbeats per server index.
	detOpts *DetectorOptions
	missed  []int

	// tickListeners run on the sim goroutine after each tick sweep (task
	// advancement + manager OnTick), in registration order. Monitoring
	// layers (internal/slo) subscribe here so they observe the
	// post-decision state of every tick.
	tickListeners []func(now float64)

	// cpuBuf, memBuf, dskBuf are sampling scratch reused across sweeps;
	// Heatmap.Sample copies its input, so reuse is safe.
	cpuBuf, memBuf, dskBuf []float64

	stopTick, stopSample, stopHB func()
}

// NewRuntime builds a runtime over the cluster.
func NewRuntime(cl *cluster.Cluster, opts Options) *Runtime {
	if opts.TickSecs <= 0 {
		opts.TickSecs = 5
	}
	if opts.SampleSecs < 0 {
		opts.SampleSecs = 0
	}
	rt := &Runtime{
		Eng:      sim.NewEngine(),
		Cl:       cl,
		RNG:      sim.NewRNG(opts.Seed),
		opts:     opts,
		tasks:    make(map[string]*Task),
		CPUHeat:  metrics.NewHeatmap(len(cl.Servers)),
		MemHeat:  metrics.NewHeatmap(len(cl.Servers)),
		DiskHeat: metrics.NewHeatmap(len(cl.Servers)),
	}
	rt.measureRNG = rt.RNG.Stream("measure")
	return rt
}

// SetTracer installs the tracer and registers the runtime's utilization
// containers with its metrics registry.
func (rt *Runtime) SetTracer(tr *obs.Tracer) {
	rt.Trace = tr
	if reg := tr.Registry(); reg != nil {
		reg.Series("cluster_alloc_cores_frac", "fraction of cluster cores allocated", &rt.AllocSeries)
		reg.Series("cluster_used_cores_frac", "fraction of cluster cores actually used", &rt.UsedSeries)
		reg.Heatmap("server_cpu_util", "per-server CPU utilization", rt.CPUHeat)
		reg.Heatmap("server_mem_util", "per-server memory utilization", rt.MemHeat)
		reg.Heatmap("server_disk_util", "per-server disk utilization", rt.DiskHeat)
		reg.Gauge("sim_events_fired", "discrete events fired by the engine",
			func() float64 { return float64(rt.Eng.Fired()) })
		reg.Gauge("tasks_total", "tasks submitted", func() float64 { return float64(len(rt.ordered)) })
		reg.Gauge("tasks_running", "tasks currently running", func() float64 {
			n := 0
			for _, t := range rt.live {
				if t.Status == StatusRunning {
					n++
				}
			}
			return float64(n)
		})
	}
}

// SetProfiler installs the engine self-profiler on the runtime and its sim
// engine. Like SetTracer it should run before the scenario starts; unlike
// the tracer, nothing the profiler measures feeds back into any simulation
// output.
func (rt *Runtime) SetProfiler(p *prof.Profiler) {
	rt.Prof = p
	rt.Eng.Prof = p
}

// spanID names the placement span of a workload on a server; placements on
// one server track overlap across workloads, so they are async spans keyed by
// this ID.
func spanID(workloadID string, serverID int) string {
	return fmt.Sprintf("%s@%d", workloadID, serverID)
}

func serverTrack(serverID int) string { return fmt.Sprintf("server/%d", serverID) }

func workloadTrack(workloadID string) string { return "workload/" + workloadID }

// SetManager installs the decision-maker and (re)starts the tick loops.
// Installing a new manager mid-run (a master failover) replaces the old
// one's loops cleanly.
func (rt *Runtime) SetManager(m Manager) {
	rt.Stop()
	rt.manager = m
	now := rt.Eng.Now()
	rt.stopTick = rt.Eng.Ticker(now+rt.opts.TickSecs, rt.opts.TickSecs, rt.tick)
	if rt.opts.SampleSecs > 0 {
		rt.stopSample = rt.Eng.Ticker(now+rt.opts.SampleSecs, rt.opts.SampleSecs, rt.sample)
	}
	if rt.detOpts != nil {
		// A manager failover must not stop failure detection; detector state
		// (including miss counters) is runtime state and survives the switch.
		rt.startHeartbeat()
	}
}

// Manager returns the installed manager.
func (rt *Runtime) Manager() Manager { return rt.manager }

// Submit schedules a workload arrival at time at.
func (rt *Runtime) Submit(w *workload.Instance, at float64, load loadgen.Pattern) *Task {
	t := &Task{
		W:         w,
		Status:    StatusQueued,
		SubmitAt:  at,
		Load:      load,
		offeredAt: math.NaN(),
		pos:       len(rt.ordered),
	}
	if w.Type.Class() == perfmodel.LatencyCritical {
		t.QoSFrac = &metrics.Series{Name: w.ID + "/qos"}
		t.LatencyDist = metrics.NewHistogram(0.01)
	}
	rt.tasks[w.ID] = t
	rt.ordered = append(rt.ordered, t)
	rt.live = append(rt.live, t)
	rt.Eng.Schedule(at, func() {
		if rt.Trace.Enabled() {
			rt.Trace.Instant(workloadTrack(w.ID), "lifecycle", "submit",
				obs.Arg{Key: "type", Val: w.Type.String()},
				obs.Arg{Key: "best_effort", Val: w.BestEffort})
		}
		rt.manager.OnSubmit(t)
	})
	return t
}

// Task returns the task for a workload ID.
func (rt *Runtime) Task(id string) *Task { return rt.tasks[id] }

// Tasks returns every task ever submitted, in submission order: the whole
// history, for end-of-run reports and snapshots. Callers must not mutate the
// slice; it is valid until the next Submit, which only appends, so a task
// keeps its position (Task.Pos) for the whole run. Per-tick sweeps iterate
// Live instead.
func (rt *Runtime) Tasks() []*Task { return rt.ordered }

// Live returns the tasks not yet completed, in submission order — what a
// per-tick sweep needs to visit. A task that completes during a tick sweep
// stays in it until that sweep ends, so the manager's OnTick and the tick
// listeners see the completion once. Callers must not mutate the slice, and
// it is valid only until the end of the current tick sweep.
func (rt *Runtime) Live() []*Task { return rt.live }

// Place establishes the task's placements. Any existing placements are kept
// (use it to add nodes); it fails atomically per node.
func (rt *Runtime) Place(t *Task, server *cluster.Server, alloc cluster.Alloc) error {
	caused := t.W.CausedPressure(server.Platform, alloc)
	pl, err := server.Place(t.W.ID, alloc, caused, t.W.Tier())
	if err != nil {
		return err
	}
	i, _ := t.placementIdx(server.ID) // server.Place refused a second placement
	t.placements = slices.Insert(t.placements, i, pl)
	t.truth = truthMemo{}
	if j, used := slices.BinarySearch(t.UsedPlatforms, server.Platform.Name); !used {
		t.UsedPlatforms = slices.Insert(t.UsedPlatforms, j, server.Platform.Name)
	}
	if tc := t.TotalCores(); tc > t.PeakCores {
		t.PeakCores = tc
	}
	if t.Status != StatusRunning {
		t.Status = StatusRunning
		t.StartAt = rt.Eng.Now()
		if !t.started {
			t.started, t.FirstStartAt = true, t.StartAt
		}
	}
	if rt.Trace.Enabled() {
		rt.Trace.BeginAsync(spanID(t.W.ID, server.ID), serverTrack(server.ID), "placement", t.W.ID,
			obs.Arg{Key: "cores", Val: alloc.Cores},
			obs.Arg{Key: "mem_gb", Val: alloc.MemoryGB},
			obs.Arg{Key: "platform", Val: server.Platform.Name},
			obs.Arg{Key: "best_effort", Val: t.W.BestEffort})
	}
	return nil
}

// PlaceFiller gives a task with no target a small slice — at most 4 cores
// and 6 GB — on the schedulable server with the most free cores among those
// safe accepts (nil accepts every server); ties go to the lowest server ID.
// noFit reports that no server is eligible — an answer that holds for every
// filler until the cluster, or what safe reads, changes.
func (rt *Runtime) PlaceFiller(t *Task, safe func(*cluster.Server) bool) (placed, noFit bool) {
	var best *cluster.Server
	for _, s := range rt.Cl.Servers {
		if s.Schedulable() && s.FreeCores() >= 1 && s.FreeMemGB() >= 1 && (safe == nil || safe(s)) {
			if best == nil || s.FreeCores() > best.FreeCores() {
				best = s
			}
		}
	}
	if best == nil {
		return false, true
	}
	alloc := cluster.Alloc{Cores: min(4, best.FreeCores()), MemoryGB: math.Min(6, best.FreeMemGB())}
	return rt.Place(t, best, alloc) == nil, false
}

// Resize changes a task's allocation on one server.
func (rt *Runtime) Resize(t *Task, server *cluster.Server, alloc cluster.Alloc) error {
	caused := t.W.CausedPressure(server.Platform, alloc)
	if err := server.Resize(t.W.ID, alloc, caused); err != nil {
		return err
	}
	if rt.Trace.Enabled() {
		rt.Trace.Instant(serverTrack(server.ID), "placement", "resize",
			obs.Arg{Key: "workload", Val: t.W.ID},
			obs.Arg{Key: "cores", Val: alloc.Cores},
			obs.Arg{Key: "mem_gb", Val: alloc.MemoryGB})
	}
	return nil
}

// RemoveNode releases the task's share of one server (scale-in).
func (rt *Runtime) RemoveNode(t *Task, serverID int) error {
	i, ok := t.placementIdx(serverID)
	if !ok {
		return fmt.Errorf("core: %s not on server %d", t.W.ID, serverID)
	}
	if err := t.placements[i].Server.Remove(t.W.ID); err != nil {
		return err
	}
	t.placements = slices.Delete(t.placements, i, i+1)
	t.truth = truthMemo{}
	if rt.Trace.Enabled() {
		rt.Trace.EndAsync(spanID(t.W.ID, serverID), serverTrack(serverID), "placement", t.W.ID)
	}
	return nil
}

// Release frees all of the task's resources in ascending server order, so
// floating-point pressure bookkeeping is reproducible. It iterates the live
// placements slice, advancing only past servers whose removal failed.
func (rt *Runtime) Release(t *Task) {
	for i := 0; i < len(t.placements); {
		n := len(t.placements)
		_ = rt.RemoveNode(t, t.placements[i].Server.ID)
		if len(t.placements) == n {
			i++ // removal failed; leave the placement and move on
		}
	}
}

// Evict displaces a task whose tier yields back to the queue and informs
// the manager. Evicting a task that holds no placement — already queued, or
// completed — is an idempotent no-op: there is nothing to displace, and
// re-queueing it would duplicate its queue entry or resurrect finished work.
func (rt *Runtime) Evict(id string) error {
	t, ok := rt.tasks[id]
	if !ok {
		return fmt.Errorf("core: evict of unknown task %s", id)
	}
	if !t.W.Tier().Yields() {
		return fmt.Errorf("core: refusing to evict non-best-effort task %s", id)
	}
	if t.NumNodes() == 0 {
		return nil
	}
	rt.Release(t)
	t.Status = StatusQueued
	if rt.Trace.Enabled() {
		rt.Trace.Instant(workloadTrack(id), "lifecycle", "evict")
		rt.Trace.Registry().Counter("evictions_total", "best-effort evictions").Inc()
	}
	rt.manager.OnEvicted(t)
	return nil
}

// nodesOf assembles the perfmodel view of the task's current allocation.
// It runs only on a truth-memo miss, so it allocates per call rather than
// keeping a scratch buffer.
func (rt *Runtime) nodesOf(t *Task) []perfmodel.NodeAlloc {
	nodes := make([]perfmodel.NodeAlloc, 0, len(t.placements))
	for _, pl := range t.placements {
		if !pl.Server.Up() {
			// Crashed but not yet detected: the placement is still on the
			// books, but the machine does no work.
			continue
		}
		nodes = append(nodes, perfmodel.NodeAlloc{
			Platform: pl.Server.Platform,
			Alloc:    pl.Alloc,
			Pressure: pl.Server.PressureOn(t.W.ID),
		})
	}
	return nodes
}

// truthValid reports whether the task's memoised rate still equals
// JobRate(nodesOf(t)). It does while the placement set is the one it was
// computed on (Place, RemoveNode and ShiftPhase drop the memo), W.Config is
// the same pointer, and no server of the task has mutated since: every
// per-server input — residents' pressure, probe, degrade, isolation, up/down
// and the task's own Alloc — changes only through a Server mutator, which
// stamps the server past the memo's generation.
func (rt *Runtime) truthValid(t *Task) bool {
	m := &t.truth
	if !m.ok || m.cfg != t.W.Config {
		return false
	}
	for _, pl := range t.placements {
		if pl.Server.Stamp() > m.gen {
			return false
		}
	}
	return true
}

// TrueRate returns the task's current true work rate (batch) given live
// interference. A stale memo is recomputed and stored for later readers;
// like every runtime method it runs on the sim goroutine.
func (rt *Runtime) TrueRate(t *Task) float64 {
	if !rt.truthValid(t) {
		t.truth = truthMemo{rate: t.W.JobRate(rt.nodesOf(t)), gen: rt.Cl.Gen(), cfg: t.W.Config, ok: true}
	}
	return t.truth.rate
}

// TrueCapacityQPS returns a service's current true capacity, with
// workload.CapacityQPS's arithmetic over TrueRate.
func (rt *Runtime) TrueCapacityQPS(t *Task) float64 {
	return rt.TrueRate(t) * t.W.Genome.QPSPerUnit
}

// ShiftPhase applies edit to the task's hidden genome — a mid-run phase
// change — and drops the memoised rate the genome feeds. Every edit of a
// submitted workload's genome goes through here.
func (rt *Runtime) ShiftPhase(t *Task, edit func(*perfmodel.Genome)) {
	edit(t.W.Genome)
	t.truth = truthMemo{}
}

// MeasuredPerf returns a noisy observation of current performance in the
// task's own metric: work rate for batch/single-node, QPS-at-QoS for
// services. This is what managers see.
func (rt *Runtime) MeasuredPerf(t *Task) float64 {
	var v float64
	if t.W.Type.Class() == perfmodel.LatencyCritical {
		capQPS := rt.TrueRate(t) * t.W.Genome.QPSPerUnit
		bound := t.W.Target.LatencyUS
		if bound <= 0 {
			bound = t.W.Genome.ServiceUS * 4
		}
		v = t.W.Genome.QPSAtQoS(capQPS, bound)
	} else {
		v = rt.TrueRate(t)
	}
	return rt.measureRNG.Jitter(v, t.W.Genome.NoiseCV)
}

// ProgressFraction returns the fraction of a batch workload completed.
// Frameworks report completion percentage, so managers may observe it.
func (rt *Runtime) ProgressFraction(t *Task) float64 {
	if t.W.Genome.Work <= 0 {
		return 0
	}
	f := t.Progress / t.W.Genome.Work
	if f > 1 {
		f = 1
	}
	return f
}

// OfferedLoad returns the service's current offered QPS. The tick sweep and
// the manager's monitor both ask at the same instant, and Pattern.Load is a
// pure function of time, so the first reading at an instant is reused.
// Like the tick sweep, it runs on the sim goroutine only.
func (rt *Runtime) OfferedLoad(t *Task) float64 {
	if t.Load == nil {
		return 0
	}
	if now := rt.Eng.Now(); now != t.offeredAt { //lint:allow(floatcmp) identity of sim-clock readings, not a computed value: equal means the same instant
		t.offered, t.offeredAt = t.Load.Load(now), now
	}
	return t.offered
}

// tick advances every running task by one interval, then drops the tasks
// that completed from the live list.
func (rt *Runtime) tick(now float64) {
	t0 := rt.Prof.Begin()
	defer rt.Prof.End(prof.SubRuntime, t0)
	dt := rt.opts.TickSecs
	for _, t := range rt.live {
		if t.Status != StatusRunning {
			continue
		}
		switch t.W.Type.Class() {
		case perfmodel.LatencyCritical:
			rt.tickService(t, now)
		default:
			rt.tickBatch(t, now, dt)
		}
	}
	if rt.manager != nil {
		rt.manager.OnTick(now)
	}
	for _, fn := range rt.tickListeners {
		fn(now)
	}
	rt.live = slices.DeleteFunc(rt.live, func(t *Task) bool { return t.Status == StatusCompleted })
}

// TickSecs returns the monitoring tick granularity.
func (rt *Runtime) TickSecs() float64 { return rt.opts.TickSecs }

// AddTickListener subscribes fn to the end of every tick sweep. Listeners
// run after the manager's OnTick, in registration order, on the sim
// goroutine.
func (rt *Runtime) AddTickListener(fn func(now float64)) {
	rt.tickListeners = append(rt.tickListeners, fn)
}

func (rt *Runtime) tickBatch(t *Task, now, dt float64) {
	rate := rt.TrueRate(t)
	t.Progress += rate * dt
	for _, pl := range t.placements {
		pl.ActiveCores = t.W.Genome.UsefulCores(pl.Alloc, 1.0)
		if cfg := t.W.Config; cfg != nil && float64(cfg.MappersPerNode) < pl.ActiveCores {
			pl.ActiveCores = float64(cfg.MappersPerNode)
		}
		pl.ActiveMemGB = t.W.Genome.UsefulMemGB(pl.Alloc)
		pl.ActiveDisk = pl.Caused[cluster.ResDiskIO]
	}
	if t.Progress >= t.W.Genome.Work {
		t.Status = StatusCompleted
		t.DoneAt = now
		rt.Release(t)
		if rt.Trace.Enabled() {
			// The whole run, from the first start: a displaced job's latest
			// start would leave out its earlier runs.
			rt.Trace.Instant(workloadTrack(t.W.ID), "lifecycle", "complete",
				obs.Arg{Key: "runtime_secs", Val: now - t.FirstStartAt})
			rt.Trace.Registry().Counter("batch_completions_total", "batch workloads completed").Inc()
		}
		rt.manager.OnComplete(t)
	}
}

func (rt *Runtime) tickService(t *Task, now float64) {
	lambda := rt.OfferedLoad(t)
	capQPS := rt.TrueRate(t) * t.W.Genome.QPSPerUnit
	achieved := t.W.Genome.AchievedQPS(lambda, capQPS)
	_, p99 := t.W.Genome.Latency(lambda, capQPS)

	t.LastOfferedQPS = lambda
	t.LastAchievedQPS = achieved
	t.LastP99US = p99
	// Skip the service's warm-up after its first placement: latency
	// percentiles should describe the served steady state, not the seconds
	// before capacity first exists. A re-admission does not restart the
	// warm-up — the tail a displacement causes is latency the service's
	// users see, so it belongs in the distribution. The streaming histogram
	// is bounded-memory, so no sample cap is needed.
	if now-t.FirstStartAt > 600 {
		t.LatencyDist.Add(p99)
	}

	bound := t.W.Target.LatencyUS
	met := 0.0
	if bound <= 0 || p99 <= bound {
		met = 1.0
	}
	if lambda > capQPS && lambda > 0 {
		met = math.Min(met, capQPS/lambda)
	}
	t.QoSFrac.Add(now, met)
	if rt.Trace.Enabled() {
		// Emit only the met<->miss edges, not one event per tick.
		state := int8(1)
		if met < 0.95 {
			state = -1
		}
		if state != t.qosState {
			name := "qos-met"
			if state < 0 {
				name = "qos-miss"
				rt.Trace.Registry().Counter("qos_misses_total", "QoS met->miss transitions").Inc()
			}
			rt.Trace.Instant(workloadTrack(t.W.ID), "qos", name,
				obs.Arg{Key: "met_frac", Val: met},
				obs.Arg{Key: "offered_qps", Val: lambda},
				obs.Arg{Key: "capacity_qps", Val: capQPS},
				obs.Arg{Key: "p99_us", Val: p99})
			t.qosState = state
		}
	}

	loadFactor := 0.0
	if capQPS > 0 {
		loadFactor = math.Min(1, lambda/capQPS)
	}
	for _, pl := range t.placements {
		pl.ActiveCores = t.W.Genome.UsefulCores(pl.Alloc, loadFactor)
		pl.ActiveMemGB = t.W.Genome.UsefulMemGB(pl.Alloc)
		pl.ActiveDisk = pl.Caused[cluster.ResDiskIO] * loadFactor
	}
}

// sample records per-server utilization.
func (rt *Runtime) sample(now float64) {
	t0 := rt.Prof.Begin()
	defer rt.Prof.End(prof.SubRuntime, t0)
	if n := len(rt.Cl.Servers); cap(rt.cpuBuf) < n {
		rt.cpuBuf = make([]float64, n)
		rt.memBuf = make([]float64, n)
		rt.dskBuf = make([]float64, n)
	}
	n := len(rt.Cl.Servers)
	cpu, mem, dsk := rt.cpuBuf[:n], rt.memBuf[:n], rt.dskBuf[:n]
	allocCores, usedCores := 0.0, 0.0
	for i, s := range rt.Cl.Servers {
		cpu[i] = s.CPUUtilization()
		mem[i] = s.MemUtilization()
		dsk[i] = s.DiskUtilization()
		allocCores += float64(s.UsedCores())
		usedCores += cpu[i] * float64(s.Platform.Cores)
	}
	rt.CPUHeat.Sample(now, cpu)
	rt.MemHeat.Sample(now, mem)
	rt.DiskHeat.Sample(now, dsk)
	total := float64(rt.Cl.TotalCores())
	rt.AllocSeries.Add(now, allocCores/total)
	rt.UsedSeries.Add(now, usedCores/total)
	if rt.Trace.Enabled() {
		rt.Trace.Counter("cluster", "util", "cores",
			obs.Arg{Key: "alloc", Val: allocCores / total},
			obs.Arg{Key: "used", Val: usedCores / total})
	}
}

// Run advances the simulation until the given virtual time.
func (rt *Runtime) Run(until float64) { rt.Eng.Run(until) }

// Stop cancels the periodic loops (call when a scenario ends to let the
// event queue drain).
func (rt *Runtime) Stop() {
	if rt.stopTick != nil {
		rt.stopTick()
	}
	if rt.stopSample != nil {
		rt.stopSample()
	}
	if rt.stopHB != nil {
		rt.stopHB()
		rt.stopHB = nil
	}
}
