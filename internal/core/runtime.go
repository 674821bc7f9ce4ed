// Package core contains the simulated cluster runtime and the Quasar
// manager itself. The runtime executes workloads against the ground-truth
// performance model: it integrates batch progress, serves offered load on
// latency services, maintains interference pressure on servers, and samples
// utilization — the "physical world" every manager (Quasar and the
// baselines) operates in through the same narrow interface.
package core

import (
	"fmt"
	"math"

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
	StartAt  float64
	DoneAt   float64

	// Progress is completed work units (batch workloads).
	Progress float64

	// Load is the offered-load pattern for latency services.
	Load loadgen.Pattern

	// Service statistics, updated every tick while running.
	LastAchievedQPS float64
	LastOfferedQPS  float64
	LastP99US       float64
	QoSFrac         *metrics.Series // fraction of queries meeting QoS per tick
	QPSSeries       *metrics.Series
	LatencyDist     *metrics.Histogram // streaming per-tick p99 samples, O(buckets) memory

	// Batch statistics.
	RateSeries *metrics.Series

	// UsedPlatforms accumulates the platform names the task was ever
	// placed on (Table 3's "server type" row).
	UsedPlatforms map[string]bool

	// PeakCores is the largest simultaneous core allocation observed.
	PeakCores int

	placements map[int]*cluster.Placement // by server ID
	// serverIDs mirrors the placement keys in ascending order, maintained
	// on Place/RemoveNode, so per-tick sweeps iterate deterministically
	// without sorting or map iteration.
	serverIDs []int
	qosState  int8 // 0 unknown, 1 meeting QoS, -1 missing (trace edge detection)
}

// Servers returns the IDs of servers currently hosting the task, ascending.
// The result is the caller's to keep; hot paths inside the runtime iterate
// the maintained serverIDs slice directly.
func (t *Task) Servers() []int {
	return append([]int(nil), t.serverIDs...)
}

// insertID inserts id into ascending ids (no-op duplicates never occur:
// Place rejects double-placement at the cluster layer).
func insertID(ids []int, id int) []int {
	ids = append(ids, id)
	for i := len(ids) - 1; i > 0 && ids[i] < ids[i-1]; i-- {
		ids[i], ids[i-1] = ids[i-1], ids[i]
	}
	return ids
}

// removeID deletes id from ascending ids, preserving order.
func removeID(ids []int, id int) []int {
	for i, v := range ids {
		if v == id {
			//lint:allow(hotalloc) in-place shift: the append reslices the existing backing array and never grows it
			return append(ids[:i], ids[i+1:]...)
		}
	}
	return ids
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

func sortInts(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
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
	order []string
	// ordered mirrors order as resolved *Task pointers so the per-tick
	// sweeps and Tasks() iterate without rebuilding a slice.
	ordered []*Task

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
		reg.Gauge("tasks_total", "tasks submitted", func() float64 { return float64(len(rt.order)) })
		reg.Gauge("tasks_running", "tasks currently running", func() float64 {
			n := 0
			for _, id := range rt.order {
				if rt.tasks[id].Status == StatusRunning {
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
//
//quasar:cold tracing-only: every call site sits inside a Trace.Enabled() guard
func spanID(workloadID string, serverID int) string {
	return fmt.Sprintf("%s@%d", workloadID, serverID)
}

//quasar:cold tracing-only: every call site sits inside a Trace.Enabled() guard
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
		W:             w,
		Status:        StatusQueued,
		SubmitAt:      at,
		Load:          load,
		QoSFrac:       &metrics.Series{Name: w.ID + "/qos"},
		QPSSeries:     &metrics.Series{Name: w.ID + "/qps"},
		RateSeries:    &metrics.Series{Name: w.ID + "/rate"},
		LatencyDist:   metrics.NewHistogram(0.01),
		UsedPlatforms: make(map[string]bool),
		placements:    make(map[int]*cluster.Placement),
	}
	rt.tasks[w.ID] = t
	rt.order = append(rt.order, w.ID)
	rt.ordered = append(rt.ordered, t)
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

// Tasks returns all tasks in submission order. The slice is the runtime's
// live ordering — callers iterate it every tick and must not mutate it; it
// is valid until the next Submit.
func (rt *Runtime) Tasks() []*Task { return rt.ordered }

// Place establishes the task's placements. Any existing placements are kept
// (use it to add nodes); it fails atomically per node.
func (rt *Runtime) Place(t *Task, server *cluster.Server, alloc cluster.Alloc) error {
	caused := t.W.CausedPressure(server.Platform, alloc)
	pl, err := server.Place(t.W.ID, alloc, caused, t.W.BestEffort)
	if err != nil {
		return err
	}
	t.placements[server.ID] = pl
	t.serverIDs = insertID(t.serverIDs, server.ID)
	t.UsedPlatforms[server.Platform.Name] = true
	if tc := t.TotalCores(); tc > t.PeakCores {
		t.PeakCores = tc
	}
	if t.Status != StatusRunning {
		t.Status = StatusRunning
		t.StartAt = rt.Eng.Now()
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
	pl, ok := t.placements[serverID]
	if !ok {
		//lint:allow(hotalloc) error path: scale-in of a server the task is not on
		return fmt.Errorf("core: %s not on server %d", t.W.ID, serverID)
	}
	if err := pl.Server.Remove(t.W.ID); err != nil {
		return err
	}
	delete(t.placements, serverID)
	t.serverIDs = removeID(t.serverIDs, serverID)
	if rt.Trace.Enabled() {
		rt.Trace.EndAsync(spanID(t.W.ID, serverID), serverTrack(serverID), "placement", t.W.ID)
	}
	return nil
}

// Release frees all of the task's resources in ascending server order, so
// floating-point pressure bookkeeping is reproducible. It iterates the live
// serverIDs slice, advancing only past servers whose removal failed.
func (rt *Runtime) Release(t *Task) {
	for i := 0; i < len(t.serverIDs); {
		n := len(t.serverIDs)
		_ = rt.RemoveNode(t, t.serverIDs[i])
		if len(t.serverIDs) == n {
			i++ // removal failed; leave the placement and move on
		}
	}
}

// Evict displaces a best-effort task back to the queue and informs the
// manager. Evicting a task that holds no placement — already queued, or
// completed — is an idempotent no-op: there is nothing to displace, and
// re-queueing it would duplicate its queue entry or resurrect finished work.
func (rt *Runtime) Evict(id string) error {
	t, ok := rt.tasks[id]
	if !ok {
		return fmt.Errorf("core: evict of unknown task %s", id)
	}
	if !t.W.BestEffort {
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
// It allocates per call by design: the SLO engine's fan-out workers call
// TrueRate concurrently, so a runtime-owned scratch buffer would race.
func (rt *Runtime) nodesOf(t *Task) []perfmodel.NodeAlloc {
	//lint:allow(hotalloc) per-call by design: concurrent SLO fan-out callers rule out shared scratch
	nodes := make([]perfmodel.NodeAlloc, 0, len(t.serverIDs))
	for _, id := range t.serverIDs {
		pl := t.placements[id]
		if !pl.Server.Up() {
			// Crashed but not yet detected: the placement is still on the
			// books, but the machine does no work.
			continue
		}
		//lint:allow(hotalloc) append within capacity preallocated to the allocation width
		nodes = append(nodes, perfmodel.NodeAlloc{
			Platform: pl.Server.Platform,
			Alloc:    pl.Alloc,
			Pressure: pl.Server.PressureOn(t.W.ID),
		})
	}
	return nodes
}

// TrueRate returns the task's current true work rate (batch) given live
// interference.
func (rt *Runtime) TrueRate(t *Task) float64 {
	return t.W.JobRate(rt.nodesOf(t))
}

// TrueCapacityQPS returns a service's current true capacity.
func (rt *Runtime) TrueCapacityQPS(t *Task) float64 {
	return t.W.CapacityQPS(rt.nodesOf(t))
}

// MeasuredPerf returns a noisy observation of current performance in the
// task's own metric: work rate for batch/single-node, QPS-at-QoS for
// services. This is what managers see.
func (rt *Runtime) MeasuredPerf(t *Task) float64 {
	var v float64
	if t.W.Type.Class() == perfmodel.LatencyCritical {
		capQPS := rt.TrueCapacityQPS(t)
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

// OfferedLoad returns the service's current offered QPS.
func (rt *Runtime) OfferedLoad(t *Task) float64 {
	if t.Load == nil {
		return 0
	}
	return t.Load.Load(rt.Eng.Now())
}

// tick advances every running task by one interval.
func (rt *Runtime) tick(now float64) {
	t0 := rt.Prof.Begin()
	defer rt.Prof.End(prof.SubRuntime, t0)
	dt := rt.opts.TickSecs
	for _, t := range rt.ordered {
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
	t.RateSeries.Add(now, rate)
	for _, id := range t.serverIDs {
		pl := t.placements[id]
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
			rt.Trace.Instant(workloadTrack(t.W.ID), "lifecycle", "complete",
				obs.Arg{Key: "runtime_secs", Val: now - t.StartAt})
			rt.Trace.Registry().Counter("batch_completions_total", "batch workloads completed").Inc()
		}
		rt.manager.OnComplete(t)
	}
}

func (rt *Runtime) tickService(t *Task, now float64) {
	lambda := rt.OfferedLoad(t)
	capQPS := rt.TrueCapacityQPS(t)
	achieved := t.W.Genome.AchievedQPS(lambda, capQPS)
	_, p99 := t.W.Genome.Latency(lambda, capQPS)

	t.LastOfferedQPS = lambda
	t.LastAchievedQPS = achieved
	t.LastP99US = p99
	t.QPSSeries.Add(now, achieved)
	// Skip the placement warm-up: latency percentiles should describe the
	// served steady state, not the seconds before capacity exists. The
	// streaming histogram is bounded-memory, so no sample cap is needed.
	if now-t.StartAt > 600 {
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
	for _, id := range t.serverIDs {
		pl := t.placements[id]
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
		rt.cpuBuf = make([]float64, n) //lint:allow(hotalloc) grow-once scratch: steady-state sweeps reuse it
		rt.memBuf = make([]float64, n) //lint:allow(hotalloc) grow-once scratch: steady-state sweeps reuse it
		rt.dskBuf = make([]float64, n) //lint:allow(hotalloc) grow-once scratch: steady-state sweeps reuse it
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
