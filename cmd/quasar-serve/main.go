// Command quasar-serve runs the cluster manager as a long-lived daemon: the
// deterministic engine free-runs (or tracks wall clock at a -warp ratio)
// while an HTTP API admits submissions, target updates, and evictions. Every
// admission is journaled and applied at the next epoch boundary of the sim
// clock, so the same journal and seed reproduce a byte-identical trace no
// matter how request arrivals jittered against the pacer.
//
// Run a daemon:
//
//	quasar-serve -addr 127.0.0.1:7717 -servers 40 -warp 60 \
//	             -journal run.journal -trace run.jsonl \
//	             -snapshot run.snapshot.json -snapshot-every 600
//
// Tail the journal as a warm standby (byte-identical trace, ready to take
// over from the latest snapshot):
//
//	quasar-serve -replay run.journal -follow -trace standby.jsonl
//
// Verify a warm-failover snapshot against an offline replay:
//
//	quasar-serve -replay run.journal -verify-snapshot run.snapshot.json
//
// SIGINT/SIGTERM trigger the graceful path: in-flight admissions drain, the
// journal gets its end marker, the final warm snapshot lands, and the trace
// finalizes via temp-file rename.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"quasar/internal/chaos"
	"quasar/internal/obs"
	"quasar/internal/serve"
)

func main() {
	if err := run(); err != nil {
		_, _ = fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr       = flag.String("addr", "127.0.0.1:7717", "HTTP listen address (\":0\" picks a free port)")
		servers    = flag.Int("servers", 40, "cluster size (uniform spread of the local platforms)")
		seed       = flag.Int64("seed", 1, "deterministic seed")
		tick       = flag.Float64("tick", 5, "runtime tick interval, sim seconds")
		sample     = flag.Float64("sample", 60, "utilization sampling interval, sim seconds")
		epoch      = flag.Float64("epoch", 1, "admission epoch, sim seconds (a positive multiple of 1/1024, e.g. 1, 0.5, 0.25)")
		warp       = flag.Float64("warp", 0, "sim seconds per wall second (0 free-runs as fast as possible)")
		horizon    = flag.Float64("horizon", 0, "stop at this sim time (0 runs until shutdown)")
		journal    = flag.String("journal", "", "admission journal path (required for daemon mode)")
		trace      = flag.String("trace", "", "stream the deterministic JSONL trace to this file")
		snapshot   = flag.String("snapshot", "", "write warm-failover snapshots to this file (atomic rename)")
		snapEvery  = flag.Float64("snapshot-every", 600, "snapshot cadence, sim seconds")
		sloFlag    = flag.Bool("slo", false, "monitor SLOs and back /healthz with cluster health")
		detector   = flag.Bool("detector", false, "enable the failure detector")
		faultsPath = flag.String("faults", "", "inject faults from this chaos plan JSON")
		flight     = flag.Int("flight", 4096, "flight recorder capacity (events retained for /debug/flightrecorder)")
		maxNodes   = flag.Int("maxnodes", 4, "default per-job node cap")
		seedLib    = flag.Int("seedlib", 1, "classification library seeds per workload type")
		replayPath = flag.String("replay", "", "replay this journal instead of serving")
		follow     = flag.Bool("follow", false, "with -replay: tail a journal that is still being written (warm standby)")
		verifySnap = flag.String("verify-snapshot", "", "with -replay: verify this snapshot file against the replayed state")
	)
	flag.Parse()

	cfg := serve.Config{
		Servers: *servers, Seed: *seed,
		TickSecs: *tick, SampleSecs: *sample, EpochSecs: *epoch,
		MaxNodes: *maxNodes, SeedLib: *seedLib,
		SLO: *sloFlag, Detector: *detector,
	}
	if *faultsPath != "" {
		plan, err := chaos.Load(*faultsPath)
		if err != nil {
			return err
		}
		cfg.Faults = plan
	}

	if *replayPath != "" {
		return runReplay(*replayPath, *trace, *follow, *verifySnap)
	}

	if *journal == "" {
		return fmt.Errorf("daemon mode requires -journal (or use -replay)")
	}
	srv, err := serve.New(serve.Options{
		Addr: *addr, Config: cfg,
		JournalPath: *journal, TracePath: *trace,
		SnapshotPath: *snapshot, SnapshotEverySecs: *snapEvery,
		Warp: *warp, HorizonSecs: *horizon, FlightRecorder: *flight,
	})
	if err != nil {
		return err
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		_, _ = fmt.Fprintln(os.Stderr, "quasar-serve: shutting down")
		srv.Shutdown()
	}()
	fmt.Printf("quasar-serve: listening on %s (warp %g, epoch %gs, journal %s)\n",
		srv.Addr(), *warp, *epoch, *journal)
	if err := srv.Serve(); err != nil {
		return err
	}
	fmt.Printf("quasar-serve: stopped at t=%g with %d admissions applied\n",
		srv.EndBoundary(), srv.Applied())
	return nil
}

// runReplay rebuilds a run from its journal, optionally tailing a live one
// or verifying a warm-failover snapshot against the rebuilt state, and
// prints the replay summary.
func runReplay(journalPath, tracePath string, follow bool, verifySnap string) error {
	opts := serve.ReplayOptions{Follow: follow}
	if tracePath != "" {
		sink, err := obs.NewStreamSink(tracePath)
		if err != nil {
			return err
		}
		opts.Sinks = []obs.Sink{sink}
	}
	if verifySnap != "" {
		snap, err := serve.LoadSnapshot(verifySnap)
		if err != nil {
			return err
		}
		opts.Snapshot = snap
	}
	res, err := serve.Replay(journalPath, opts)
	if err != nil {
		return err
	}
	fmt.Printf("replay: %d entries applied to t=%g (seed %d, %d servers)\n",
		res.Applied, res.EndAt, res.Config.Seed, res.Config.Servers)
	if res.Truncated {
		fmt.Println("replay: journal has no end marker (killed run); applied everything on disk")
	}
	if opts.Snapshot != nil {
		fmt.Printf("replay: snapshot at t=%g verified against replayed state\n", opts.Snapshot.SimTime)
	}
	return nil
}
