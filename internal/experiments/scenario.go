// Package experiments contains one runner per table and figure of the
// paper's evaluation. Each runner builds the scenario, executes it in the
// simulated runtime, and returns a typed result whose Print method emits
// the same rows/series the paper reports. cmd/quasar-bench and the
// repository's benchmarks share these runners.
package experiments

import (
	"fmt"
	"io"
	"math"

	"quasar/internal/baselines"
	"quasar/internal/classify"
	"quasar/internal/cluster"
	"quasar/internal/core"
	"quasar/internal/loadgen"
	"quasar/internal/obs"
	"quasar/internal/perfmodel"
	"quasar/internal/sim"
	"quasar/internal/slo"
	"quasar/internal/workload"
)

// ManagerKind selects the cluster manager under test.
type ManagerKind int

const (
	// KindQuasar is the paper's system.
	KindQuasar ManagerKind = iota
	// KindReservationLL is reservation allocation + least-loaded
	// assignment.
	KindReservationLL
	// KindReservationParagon is reservation allocation + Paragon
	// (heterogeneity/interference-aware) assignment.
	KindReservationParagon
	// KindFrameworkSelf is framework self-scheduling (accurate framework
	// sizing, default configs) + least-loaded assignment — the "allocations
	// done by the frameworks themselves" baseline of §6.1/6.2.
	KindFrameworkSelf
	// KindAutoscale is load-triggered auto-scaling for services +
	// least-loaded assignment (§6.3/6.4).
	KindAutoscale
	// KindMesosDRF is a dominant-resource-fairness allocator in the style
	// of Mesos (the paper's [27]): fair, but neither QoS- nor
	// heterogeneity-aware.
	KindMesosDRF
)

func (k ManagerKind) String() string {
	switch k {
	case KindQuasar:
		return "quasar"
	case KindReservationLL:
		return "reservation+LL"
	case KindReservationParagon:
		return "reservation+paragon"
	case KindFrameworkSelf:
		return "framework-self"
	case KindAutoscale:
		return "autoscale"
	case KindMesosDRF:
		return "mesos-drf"
	}
	return fmt.Sprintf("manager(%d)", int(k))
}

// ClusterKind selects the testbed.
type ClusterKind int

const (
	// Local40 is the paper's 40-server local cluster (4 of each platform
	// A-J).
	Local40 ClusterKind = iota
	// EC2x200 is the paper's 200-server dedicated EC2 cluster.
	EC2x200
)

// buildCluster constructs the testbed.
func buildCluster(kind ClusterKind) (*cluster.Cluster, error) {
	switch kind {
	case Local40:
		return cluster.New(cluster.LocalPlatforms(), []int{4, 4, 4, 4, 4, 4, 4, 4, 4, 4})
	default:
		return cluster.NewUniform(cluster.EC2Platforms(), 200)
	}
}

// Scenario assembles a runtime, a manager, and a workload universe.
type Scenario struct {
	RT  *core.Runtime
	U   *workload.Universe
	Mgr core.Manager
	Q   *core.Quasar // nil for baselines

	// Tracer is non-nil when the scenario was built with Trace set; it
	// collects the run's full event log and metrics registry.
	Tracer *obs.Tracer

	// SLO is non-nil when the scenario was built with SLO set; it monitors
	// every non-best-effort workload against its declared target.
	SLO *slo.Engine
}

// ScenarioConfig configures scenario assembly.
type ScenarioConfig struct {
	Cluster ClusterKind
	// Servers, when positive, overrides Cluster with a uniform spread of the
	// local platforms at this size — the vehicle for at-scale runs (the
	// testbed presets stop at 200 servers).
	Servers     int
	Manager     ManagerKind
	Seed        int64
	TickSecs    float64
	Sample      float64
	SeedLib     int  // offline-library workloads per type (default 3)
	MaxNodes    int  // per-job scale-out bound
	Misestimate bool // reservation misestimation for baseline kinds
	Trace       bool // collect a structured event trace of the run
	SLO         bool // attach the SLO monitoring engine (works with or without Trace)
	// TraceSinks, when non-empty (and Trace is set), replaces the default
	// in-memory buffer with this sink pipeline — e.g. a StreamSink spilling
	// to disk, or a RingSink flight recorder, to keep memory bounded at
	// scale. Without a BufferSink in the list the whole-trace exporters
	// (Chrome, Prometheus) are unavailable.
	TraceSinks []obs.Sink
	// TraceControls, when non-nil, installs deterministic trace controls
	// (level filters, workload sampling, top-K truncation) before the first
	// event, so they are recorded in the trace header.
	TraceControls *obs.Controls
}

// UniverseFamilies is the genome-family pool size per workload archetype of
// every scenario's universe — fixed so serve's submit validation can bound
// the family index statelessly.
const UniverseFamilies = 3

// QuasarOptions is the manager configuration of every KindQuasar scenario
// for a per-job scale-out bound. A manager rebuilt over a scenario's runtime
// (an ablation variant, a failover restore) starts from the same options.
func QuasarOptions(maxNodes int) core.QuasarOptions {
	opts := core.DefaultQuasarOptions()
	opts.MaxNodesPerJob = maxNodes
	opts.Classify.MaxNodes = max(32, maxNodes)
	opts.Classify.Entries = 3
	return opts
}

// ServiceLoad is the default load offered to a latency-critical service:
// fluctuating between 40 % and 90 % of its target QPS over a 6000 s period.
func ServiceLoad(w *workload.Instance) loadgen.Fluctuating {
	return loadgen.Fluctuating{Min: 0.4 * w.Target.QPS, Max: 0.9 * w.Target.QPS, Period: 6000}
}

// NewScenario builds the world.
func NewScenario(cfg ScenarioConfig) (*Scenario, error) {
	var cl *cluster.Cluster
	var err error
	if cfg.Servers > 0 {
		cl, err = cluster.NewUniform(cluster.LocalPlatforms(), cfg.Servers)
	} else {
		cl, err = buildCluster(cfg.Cluster)
	}
	if err != nil {
		return nil, err
	}
	if cfg.TickSecs <= 0 {
		cfg.TickSecs = 5
	}
	if cfg.Sample <= 0 {
		cfg.Sample = 60
	}
	if cfg.SeedLib <= 0 {
		cfg.SeedLib = 3
	}
	if cfg.MaxNodes <= 0 {
		cfg.MaxNodes = 16
	}
	rt := core.NewRuntime(cl, core.Options{TickSecs: cfg.TickSecs, SampleSecs: cfg.Sample, Seed: cfg.Seed})
	u := workload.NewUniverse(cl.Platforms, cfg.Seed+1000, UniverseFamilies)

	s := &Scenario{RT: rt, U: u}
	if cfg.Trace {
		if len(cfg.TraceSinks) > 0 {
			s.Tracer = obs.NewWithSinks(rt.Eng.Now, cfg.TraceSinks...)
		} else {
			s.Tracer = obs.New(rt.Eng.Now)
		}
		if cfg.TraceControls != nil {
			s.Tracer.SetControls(*cfg.TraceControls)
		}
	}
	lib := u.Library(workload.LibraryTypes, cfg.SeedLib)
	switch cfg.Manager {
	case KindQuasar:
		q := core.NewQuasar(rt, QuasarOptions(cfg.MaxNodes))
		if s.Tracer != nil {
			q.SetTracer(s.Tracer)
		}
		q.SeedLibrary(lib)
		s.Mgr, s.Q = q, q
	case KindMesosDRF:
		s.Mgr = baselines.NewDRF(rt, cfg.Misestimate, cfg.MaxNodes)
	case KindReservationLL, KindFrameworkSelf, KindAutoscale, KindReservationParagon:
		b := baselines.New(rt, baselineOpts(cfg))
		if b.Engine() != nil {
			b.Engine().SeedOfflineMany(lib, classify.GroundTruthProbers(lib, cl.Platforms, sim.NewRNG(cfg.Seed+77)))
		}
		s.Mgr = b
	}
	if s.Tracer != nil && s.Q == nil {
		// Baselines have no scheduler/classifier hooks; lifecycle events
		// from the runtime are still traced.
		rt.SetTracer(s.Tracer)
	}
	rt.SetManager(s.Mgr)
	if cfg.SLO {
		// After SetManager so the SLO tick listener observes post-manager
		// state; s.Tracer may be nil (monitoring without event emission).
		s.SLO = slo.Attach(rt, s.Tracer, slo.DefaultOptions())
	}
	return s, nil
}

func baselineOpts(cfg ScenarioConfig) baselines.Options {
	opts := baselines.DefaultOptions()
	opts.MaxNodes = cfg.MaxNodes
	opts.MaxInstances = cfg.MaxNodes
	switch cfg.Manager {
	case KindReservationParagon:
		opts.Assign = baselines.AssignParagon
		opts.Misestimate = cfg.Misestimate
		opts.AutoscaleServices = true
	case KindReservationLL:
		opts.Assign = baselines.AssignLeastLoaded
		opts.Misestimate = cfg.Misestimate
		opts.AutoscaleServices = true
	case KindFrameworkSelf:
		// The framework sizes its own jobs from history — no user
		// misestimation, but no heterogeneity/interference awareness and
		// stock configurations.
		opts.Assign = baselines.AssignLeastLoaded
		opts.Misestimate = false
	case KindAutoscale:
		opts.Assign = baselines.AssignLeastLoaded
		opts.Misestimate = false
		opts.AutoscaleServices = true
	}
	return opts
}

// PerfNormalizedToTarget returns a finished or running task's performance
// relative to its target (1.0 = exactly met, >1 = beat it; NaN for
// best-effort tasks, which have no target).
func PerfNormalizedToTarget(rt *core.Runtime, t *core.Task) float64 {
	w := t.W
	switch {
	case !w.Tier().Targeted():
		return math.NaN()
	case w.Type.Class() == perfmodel.LatencyCritical:
		// Fraction of ticks meeting QoS, discounting warm-up.
		span := rt.Eng.Now() - t.SubmitAt
		warm := t.SubmitAt + math.Min(600, span*0.2)
		return t.QoSFrac.MeanBetween(warm, math.Inf(1))
	case w.Type.Class() == perfmodel.SingleNode:
		// Achieved IPS (mean work rate since the first start) vs the IPS
		// target. Progress spans every run, so it is divided by the time
		// since the first start: a displaced job's last run alone would
		// overstate its rate.
		end := t.DoneAt
		if t.Status != core.StatusCompleted {
			end = rt.Eng.Now()
		}
		elapsed := end - t.FirstStartAt
		if elapsed <= 0 || t.Progress <= 0 {
			return 0
		}
		return clampNorm((t.Progress / elapsed) / w.Target.IPS)
	default:
		if t.Status != core.StatusCompleted {
			// Still running (or never placed): project from progress.
			elapsed := rt.Eng.Now() - t.SubmitAt
			if elapsed <= 0 {
				return 0
			}
			frac := rt.ProgressFraction(t)
			if frac <= 0 {
				return 0
			}
			projected := elapsed / frac
			return clampNorm(w.Target.CompletionSecs / projected)
		}
		return clampNorm(w.Target.CompletionSecs / (t.DoneAt - t.SubmitAt))
	}
}

func clampNorm(x float64) float64 {
	if math.IsInf(x, 0) || math.IsNaN(x) {
		return 0
	}
	if x > 2 {
		x = 2
	}
	return x
}

// fprintf writes formatted output, ignoring errors (report rendering).
func fprintf(w io.Writer, format string, args ...any) {
	_, _ = fmt.Fprintf(w, format, args...)
}
