// Command quasar-sim runs an ad-hoc cluster-management scenario: it builds
// a cluster, submits a workload mix, and reports per-workload performance
// against targets plus cluster utilization under the selected manager.
//
// Example:
//
//	quasar-sim -manager quasar -cluster local40 -hadoop 6 -services 4 \
//	           -single 40 -besteffort 60 -horizon 20000 -seed 7
//
// At-scale runs override the testbed preset with a uniform cluster and pack
// submissions tighter; stream the trace and sample workloads to keep both
// memory and trace size bounded:
//
//	quasar-sim -servers 1000 -gap 0.02 -horizon 260 -hadoop 0 -spark 0 \
//	           -storm 0 -services 20 -single 480 -besteffort 9500 \
//	           -trace run.jsonl -trace-sample 0.1 -trace-topk 8
//
// JSONL traces stream to disk while the run executes (the in-memory footprint
// stays bounded regardless of trace size) and finalize via temp-file + rename,
// so a failed run still leaves a valid partial trace. -trace-buffer opts back
// into full in-memory buffering; chrome and prom formats imply it, since they
// render from the whole trace.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strings"

	"quasar/internal/chaos"
	"quasar/internal/core"
	"quasar/internal/experiments"
	"quasar/internal/loadgen"
	"quasar/internal/obs"
	"quasar/internal/obs/prof"
	"quasar/internal/perfmodel"
	"quasar/internal/workload"
)

func main() {
	if err := run(); err != nil {
		_, _ = fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		managerName = flag.String("manager", "quasar", "quasar | reservation-ll | reservation-paragon | framework | autoscale | mesos-drf")
		clusterName = flag.String("cluster", "local40", "local40 | ec2x200")
		servers     = flag.Int("servers", 0, "override -cluster with a uniform spread of the local platforms at this size")
		gap         = flag.Float64("gap", 5, "simulated seconds between submissions")
		hadoop      = flag.Int("hadoop", 4, "Hadoop jobs to submit")
		spark       = flag.Int("spark", 2, "Spark jobs")
		storm       = flag.Int("storm", 2, "Storm jobs")
		services    = flag.Int("services", 3, "latency-critical services")
		single      = flag.Int("single", 20, "single-node batch jobs")
		bestEffort  = flag.Int("besteffort", 40, "best-effort fillers")
		horizon     = flag.Float64("horizon", 20000, "simulated seconds to run")
		seed        = flag.Int64("seed", 1, "deterministic seed")
		verbose     = flag.Bool("v", false, "per-workload detail")
		tracePath   = flag.String("trace", "", "write a deterministic trace of the run to this file")
		traceFormat = flag.String("trace-format", "jsonl", "trace format: jsonl | chrome | prom")
		traceBuffer = flag.Bool("trace-buffer", false, "buffer the whole trace in memory instead of streaming to disk (implied by chrome/prom formats)")
		traceLevel  = flag.String("trace-level", "", "default trace level: off | lifecycle | decision | debug (empty records everything)")
		traceCats   = flag.String("trace-cats", "", "per-category level overrides, e.g. 'runtime=lifecycle,chaos=off'")
		traceSample = flag.Float64("trace-sample", 0, "keep this fraction of workloads in the trace (hash-based and deterministic; 0 or 1 keeps all)")
		traceTopK   = flag.Int("trace-topk", 0, "truncate schedule-decision candidate rankings to the K best (0 keeps the full ranking)")
		profFlag    = flag.Bool("prof", false, "print an engine self-profile (wall-clock time per subsystem) after the run")
		faultsPath  = flag.String("faults", "", "inject faults from this chaos plan JSON (e.g. internal/chaos/testdata/storm.json)")
		sloFlag     = flag.Bool("slo", false, "monitor every non-best-effort workload against its SLO and report error budgets, burn-rate alerts, and cluster health")
	)
	flag.Parse()

	kind := map[string]experiments.ManagerKind{
		"quasar":              experiments.KindQuasar,
		"reservation-ll":      experiments.KindReservationLL,
		"reservation-paragon": experiments.KindReservationParagon,
		"framework":           experiments.KindFrameworkSelf,
		"autoscale":           experiments.KindAutoscale,
		"mesos-drf":           experiments.KindMesosDRF,
	}[*managerName]
	cl := experiments.Local40
	if *clusterName == "ec2x200" {
		cl = experiments.EC2x200
	}

	controls, err := parseControls(*traceLevel, *traceCats, *traceSample, *traceTopK)
	if err != nil {
		return err
	}
	// JSONL traces stream straight to disk unless buffering is asked for;
	// chrome/prom render from the whole trace and need the buffer.
	var stream *obs.StreamSink
	var sinks []obs.Sink
	if *tracePath != "" && *traceFormat == "jsonl" && !*traceBuffer {
		stream, err = obs.NewStreamSink(*tracePath)
		if err != nil {
			return err
		}
		sinks = append(sinks, stream)
	}

	s, err := experiments.NewScenario(experiments.ScenarioConfig{
		Cluster: cl, Servers: *servers, Manager: kind, Seed: *seed, MaxNodes: 4,
		SeedLib: 3, Misestimate: true,
		Trace: *tracePath != "", SLO: *sloFlag,
		TraceSinks: sinks, TraceControls: controls,
	})
	if err != nil {
		if stream != nil {
			stream.Discard()
		}
		return err
	}
	// Finalize the trace no matter how the run ends: the streaming sink
	// renames its temp file into place on Close, so even an error below
	// leaves a valid partial trace instead of nothing.
	defer func() {
		if s.Tracer != nil {
			_ = s.Tracer.Close()
		}
	}()

	var inj *chaos.Injector
	if *faultsPath != "" {
		plan, err := chaos.Load(*faultsPath)
		if err != nil {
			return err
		}
		// Armed before any submission, like the availability experiment:
		// the injector's RNG stream derivation order is part of the
		// deterministic identity of the run.
		inj, err = s.AttachFaults(plan, core.DefaultDetectorOptions())
		if err != nil {
			return err
		}
	}

	var p *prof.Profiler
	if *profFlag {
		p = prof.New()
		if s.Q != nil {
			s.Q.SetProfiler(p)
		} else {
			s.RT.SetProfiler(p)
		}
		if s.SLO != nil {
			s.SLO.Prof = p
		}
		if inj != nil {
			inj.Prof = p
		}
		if stream != nil {
			stream.Prof = p
		}
	}

	var tasks []*core.Task
	at := 0.0
	submit := func(spec workload.Spec, load loadgen.Pattern) {
		w := s.U.New(spec)
		if load == nil && w.Type.Class() == perfmodel.LatencyCritical {
			load = experiments.ServiceLoad(w)
		}
		tasks = append(tasks, s.RT.Submit(w, at, load))
		at += *gap
	}
	for i := 0; i < *hadoop; i++ {
		submit(workload.Spec{Type: workload.Hadoop, Family: i % 3, MaxNodes: 3, TargetSlack: 1.2,
			Dataset: workload.Dataset{Name: "sim", SizeGB: 20, WorkMult: 1.5, MemMult: 1}}, nil)
	}
	for i := 0; i < *spark; i++ {
		submit(workload.Spec{Type: workload.Spark, Family: i % 3, MaxNodes: 3, TargetSlack: 1.2,
			Dataset: workload.Dataset{Name: "sim", SizeGB: 20, WorkMult: 4, MemMult: 1}}, nil)
	}
	for i := 0; i < *storm; i++ {
		submit(workload.Spec{Type: workload.Storm, Family: i % 3, MaxNodes: 3, TargetSlack: 1.2,
			Dataset: workload.Dataset{Name: "sim", SizeGB: 20, WorkMult: 6, MemMult: 1}}, nil)
	}
	svcTypes := []workload.Type{workload.Webserver, workload.Memcached, workload.Cassandra}
	for i := 0; i < *services; i++ {
		submit(workload.Spec{Type: svcTypes[i%3], Family: -1, MaxNodes: 3}, nil)
	}
	for i := 0; i < *single; i++ {
		submit(workload.Spec{Type: workload.SingleNode, Family: -1, TargetSlack: 1.3}, nil)
	}
	for i := 0; i < *bestEffort; i++ {
		submit(workload.Spec{Type: workload.SingleNode, Family: -1, BestEffort: true}, nil)
	}

	s.RT.Run(*horizon)
	s.RT.Stop()

	if *tracePath != "" {
		if stream != nil {
			if err := s.Tracer.Close(); err != nil {
				return err
			}
			fmt.Printf("trace: %d events -> %s (jsonl, streamed, %d bytes)\n",
				s.Tracer.Len(), *tracePath, stream.BytesWritten())
		} else {
			if err := writeTrace(*tracePath, *traceFormat, s.Tracer); err != nil {
				return err
			}
			fmt.Printf("trace: %d events -> %s (%s)\n", s.Tracer.Len(), *tracePath, *traceFormat)
		}
		if d := s.Tracer.Dropped(); d > 0 {
			fmt.Printf("trace controls dropped %d events (recorded in the trace header)\n", d)
		}
	}

	clusterLabel := *clusterName
	if *servers > 0 {
		clusterLabel = fmt.Sprintf("uniform%d", *servers)
	}
	fmt.Printf("manager=%s cluster=%s horizon=%.0fs workloads=%d\n",
		s.Mgr.Name(), clusterLabel, *horizon, len(tasks))
	byStatus := map[core.Status]int{}
	sum, n := 0.0, 0
	for _, t := range tasks {
		byStatus[t.Status]++
		if t.W.BestEffort {
			continue
		}
		v := experiments.PerfNormalizedToTarget(s.RT, t)
		if math.IsNaN(v) {
			continue
		}
		if *verbose {
			fmt.Printf("  %-20s %-12s %-10s perf=%.2f nodes=%d\n",
				t.W.ID, t.W.Type, t.Status, v, t.NumNodes())
		}
		if v > 1 {
			v = 1
		}
		sum += v
		n++
	}
	fmt.Printf("statuses: ")
	for st := core.StatusQueued; st <= core.StatusRejected; st++ {
		if byStatus[st] > 0 {
			fmt.Printf("%s=%d ", st, byStatus[st])
		}
	}
	fmt.Println()
	if n > 0 {
		fmt.Printf("mean %% of target achieved: %.1f%%\n", 100*sum/float64(n))
	}
	fmt.Printf("mean CPU utilization: %.1f%%\n", 100*s.RT.CPUHeat.MeanOverall())

	if s.SLO != nil {
		s.SLO.Report(os.Stdout)
	}

	if inj != nil {
		st := inj.Stats()
		fmt.Printf("faults: %d crashes, %d slowdowns, %d partitions (%d restarts, %d heals, %d skipped); live servers %d/%d\n",
			st.Crashes, st.Slowdowns, st.Partitions, st.Restarts, st.Heals, st.Skipped,
			s.RT.Cl.NumLive(), len(s.RT.Cl.Servers))
		if s.Q != nil {
			rec := s.Q.Recovery()
			fmt.Printf("recovery: %d displaced (%d LC), %d re-admitted (%d without re-profiling), MTTR %.0fs\n",
				rec.Displaced, rec.DisplacedLC, rec.Readmitted, rec.ReadmittedNoReprofile, rec.MTTR())
		}
	}

	if p != nil {
		if err := p.WriteReport(os.Stdout); err != nil {
			return err
		}
	}
	return nil
}

// parseControls builds trace controls from the -trace-* flags, nil when every
// flag is at its record-everything default.
func parseControls(level, cats string, sample float64, topK int) (*obs.Controls, error) {
	c := obs.Controls{SampleWorkloads: sample, TopK: topK}
	if level != "" {
		l, ok := obs.ParseLevel(level)
		if !ok {
			return nil, fmt.Errorf("unknown -trace-level %q (want off, lifecycle, decision, or debug)", level)
		}
		c.Default = l
	}
	if cats != "" {
		c.Category = map[string]obs.Level{}
		for _, pair := range strings.Split(cats, ",") {
			cat, lvl, ok := strings.Cut(strings.TrimSpace(pair), "=")
			if !ok {
				return nil, fmt.Errorf("bad -trace-cats entry %q (want category=level)", pair)
			}
			l, okL := obs.ParseLevel(lvl)
			if !okL {
				return nil, fmt.Errorf("unknown level %q in -trace-cats entry %q", lvl, pair)
			}
			c.Category[cat] = l
		}
	}
	if c.Default == obs.LevelUnset && len(c.Category) == 0 && sample == 0 && topK == 0 { //lint:allow(floatcmp) zero means "flag not set"
		return nil, nil
	}
	return &c, nil
}

// writeTrace renders the collected trace in the requested format.
func writeTrace(path, format string, tr *obs.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	switch format {
	case "jsonl":
		err = obs.WriteJSONL(f, tr)
	case "chrome":
		err = obs.WriteChromeTrace(f, tr)
	case "prom":
		err = obs.WritePromSnapshot(f, tr)
	default:
		err = fmt.Errorf("unknown -trace-format %q (want jsonl, chrome, or prom)", format)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
