// Command quasar-bench regenerates every table and figure of the paper's
// evaluation as text rows/series, each at its paper-scale configuration.
// Run it with no arguments for the full suite, or name the artifacts to
// regenerate:
//
//	quasar-bench fig1 fig2 table1 table2 fig3 fig5 table3 fig6 fig7 \
//	             fig8 fig9 fig10 fig11 stragglers phases overheads ablations \
//	             availability slodetect
//
// The names and their order are experiments.Artifacts(). The "availability"
// artifact runs the canned fault storm and reports QoS-met %, MTTR, and the
// displaced-work half-life. The "slodetect" artifact scores the burn-rate
// alert stream against a scripted crash storm (precision, recall, detection
// latency vs the heartbeat detector). Every name is checked before anything
// runs; an unknown one exits 2.
//
// -cpuprofile and -memprofile capture pprof profiles of whatever artifacts
// run, for drilling into where the engine itself spends time.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"quasar/internal/experiments"
	"quasar/internal/par"
)

// errUsage marks a command line that cannot run; main exits 2 on it.
var errUsage = errors.New("usage")

func main() {
	err := run(os.Args[1:], os.Stdout)
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
	case errors.Is(err, errUsage):
		_, _ = fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	default:
		_, _ = fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
}

// run prints the artifacts the command-line args name, every one when they
// name none, to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("quasar-bench", flag.ContinueOnError)
	workers := fs.Int("workers", 0, "worker goroutines for parallel fan-outs (0 = GOMAXPROCS); never changes results")
	cpuProfile := fs.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memProfile := fs.String("memprofile", "", "write a pprof heap profile at exit to this file")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return fmt.Errorf("%w: %w", errUsage, err)
	}
	artifacts, err := pick(experiments.Artifacts(), fs.Args())
	if err != nil {
		return err
	}
	par.SetDefaultWorkers(*workers)

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			_ = f.Close()
			return err
		}
		defer func() {
			pprof.StopCPUProfile()
			_ = f.Close()
		}()
	}

	for _, a := range artifacts {
		start := time.Now()
		if err := a.Print(stdout); err != nil {
			return fmt.Errorf("%s: %w", a.Name, err)
		}
		_, _ = fmt.Fprintf(stdout, "[%s done in %.1fs]\n\n", a.Name, time.Since(start).Seconds())
	}

	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			return err
		}
		runtime.GC() // settle the heap so the profile shows retained memory
		err = pprof.WriteHeapProfile(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		return err
	}
	return nil
}

// pick returns the catalogue entries names selects, in the order named, or
// the whole catalogue when names is empty. An unknown name selects nothing.
func pick(catalogue []experiments.Artifact, names []string) ([]experiments.Artifact, error) {
	if len(names) == 0 {
		return catalogue, nil
	}
	byName := make(map[string]experiments.Artifact, len(catalogue))
	for _, a := range catalogue {
		byName[a.Name] = a
	}
	picked := make([]experiments.Artifact, 0, len(names))
	for _, name := range names {
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("%w: unknown artifact %q", errUsage, name)
		}
		picked = append(picked, a)
	}
	return picked, nil
}
