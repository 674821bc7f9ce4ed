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
// submissions tighter; stream the trace to keep memory bounded, and cap each
// schedule decision's candidate ranking (the bulk of a trace's bytes at
// scale) with -trace-topk:
//
//	quasar-sim -servers 1000 -gap 0.02 -horizon 260 -hadoop 0 -spark 0 \
//	           -storm 0 -services 20 -single 480 -besteffort 9500 \
//	           -trace run.jsonl -trace-topk 8
//
// JSONL traces stream to disk while the run executes (the in-memory footprint
// stays bounded regardless of trace size) and finalize via temp-file + rename,
// so a failed run still leaves a valid partial trace. -trace-buffer opts back
// into full in-memory buffering; the chrome format implies it, since it
// renders from the whole trace. The prom snapshot buffers nothing: it reads
// only the event count and the metrics registry.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"

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
	if err := run(os.Args[1:], os.Stdout); err != nil {
		_, _ = fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
}

// run executes the scenario the command-line args describe, reporting to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("quasar-sim", flag.ExitOnError)
	var (
		managerName = fs.String("manager", "quasar", "quasar | reservation-ll | reservation-paragon | framework | autoscale | mesos-drf")
		clusterName = fs.String("cluster", "local40", "local40 | ec2x200")
		servers     = fs.Int("servers", 0, "override -cluster with a uniform spread of the local platforms at this size")
		gap         = fs.Float64("gap", 5, "simulated seconds between submissions")
		hadoop      = fs.Int("hadoop", 4, "Hadoop jobs to submit")
		spark       = fs.Int("spark", 2, "Spark jobs")
		storm       = fs.Int("storm", 2, "Storm jobs")
		services    = fs.Int("services", 3, "latency-critical services")
		single      = fs.Int("single", 20, "single-node batch jobs")
		bestEffort  = fs.Int("besteffort", 40, "best-effort fillers")
		horizon     = fs.Float64("horizon", 20000, "simulated seconds to run")
		seed        = fs.Int64("seed", 1, "deterministic seed")
		verbose     = fs.Bool("v", false, "per-workload detail")
		tracePath   = fs.String("trace", "", "write a deterministic trace of the run to this file")
		traceFormat = fs.String("trace-format", "jsonl", "trace format: jsonl | chrome | prom")
		traceBuffer = fs.Bool("trace-buffer", false, "buffer the whole trace in memory instead of streaming to disk (implied by -trace-format chrome)")
		traceTopK   = fs.Int("trace-topk", 0, "truncate schedule-decision candidate rankings to the K best (0 keeps the full ranking)")
		profFlag    = fs.Bool("prof", false, "print an engine self-profile (wall-clock time per subsystem) after the run")
		faultsPath  = fs.String("faults", "", "inject faults from this chaos plan JSON (e.g. internal/chaos/testdata/storm.json)")
		sloFlag     = fs.Bool("slo", false, "monitor every non-best-effort workload against its SLO and report error budgets, burn-rate alerts, and cluster health")
	)
	_ = fs.Parse(args) // ExitOnError: a bad flag exits with the usage text

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

	export, ok := traceExporters[*traceFormat]
	if !ok {
		return fmt.Errorf("unknown -trace-format %q (want jsonl, chrome, or prom)", *traceFormat)
	}
	// JSONL traces stream straight to disk unless buffering is asked for;
	// chrome renders from the whole trace and needs the scenario's default
	// buffer; prom keeps no event.
	var stream *obs.StreamSink
	var sinks []obs.Sink
	var err error
	switch {
	case *tracePath == "":
	case *traceFormat == "prom":
		sinks = append(sinks, obs.DiscardSink{})
	case *traceFormat == "jsonl" && !*traceBuffer:
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
		TraceSinks: sinks, TraceTopK: *traceTopK,
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
			_, _ = fmt.Fprintf(stdout, "trace: %d events -> %s (jsonl, streamed, %d bytes)\n",
				s.Tracer.Len(), *tracePath, stream.BytesWritten())
		} else {
			if err := writeTrace(*tracePath, export, s.Tracer); err != nil {
				return err
			}
			_, _ = fmt.Fprintf(stdout, "trace: %d events -> %s (%s)\n", s.Tracer.Len(), *tracePath, *traceFormat)
		}
	}

	clusterLabel := *clusterName
	if *servers > 0 {
		clusterLabel = fmt.Sprintf("uniform%d", *servers)
	}
	_, _ = fmt.Fprintf(stdout, "manager=%s cluster=%s horizon=%.0fs workloads=%d\n",
		s.Mgr.Name(), clusterLabel, *horizon, len(tasks))
	byStatus := map[core.Status]int{}
	sum, n := 0.0, 0
	for _, t := range tasks {
		byStatus[t.Status]++
		if !t.W.Tier().Targeted() {
			continue
		}
		v := experiments.PerfNormalizedToTarget(s.RT, t)
		if math.IsNaN(v) {
			continue
		}
		if *verbose {
			_, _ = fmt.Fprintf(stdout, "  %-20s %-12s %-10s perf=%.2f nodes=%d\n",
				t.W.ID, t.W.Type, t.Status, v, t.NumNodes())
		}
		if v > 1 {
			v = 1
		}
		sum += v
		n++
	}
	_, _ = fmt.Fprintf(stdout, "statuses: ")
	for st := core.StatusQueued; st <= core.StatusRejected; st++ {
		if byStatus[st] > 0 {
			_, _ = fmt.Fprintf(stdout, "%s=%d ", st, byStatus[st])
		}
	}
	_, _ = fmt.Fprintln(stdout)
	if n > 0 {
		_, _ = fmt.Fprintf(stdout, "mean %% of target achieved: %.1f%%\n", 100*sum/float64(n))
	}
	_, _ = fmt.Fprintf(stdout, "mean CPU utilization: %.1f%%\n", 100*s.RT.CPUHeat.MeanOverall())

	if s.SLO != nil {
		s.SLO.Report(stdout)
	}

	if inj != nil {
		st := inj.Stats()
		_, _ = fmt.Fprintf(stdout, "faults: %d crashes, %d slowdowns, %d partitions (%d restarts, %d heals, %d skipped); live servers %d/%d\n",
			st.Crashes, st.Slowdowns, st.Partitions, st.Restarts, st.Heals, st.Skipped,
			s.RT.Cl.NumLive(), len(s.RT.Cl.Servers))
		if s.Q != nil {
			rec := s.Q.Recovery()
			_, _ = fmt.Fprintf(stdout, "recovery: %d displaced (%d LC), %d re-admitted (%d without re-profiling), MTTR %.0fs\n",
				rec.Displaced, rec.DisplacedLC, rec.Readmitted, rec.ReadmittedNoReprofile, rec.MTTR())
		}
	}

	if p != nil {
		if err := p.WriteReport(stdout); err != nil {
			return err
		}
	}
	return nil
}

// traceExporters maps each -trace-format to its renderer of a finished trace.
var traceExporters = map[string]func(io.Writer, *obs.Tracer) error{
	"jsonl":  obs.WriteJSONL,
	"chrome": obs.WriteChromeTrace,
	"prom":   obs.WritePromSnapshot,
}

// writeTrace renders the collected trace to path with export.
func writeTrace(path string, export func(io.Writer, *obs.Tracer) error, tr *obs.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = export(f, tr)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
