// Command quasar-bench regenerates every table and figure of the paper's
// evaluation as text rows/series. Run it with no arguments for the full
// suite, or name the artifacts to regenerate:
//
//	quasar-bench fig1 fig2 table1 table2 fig3 fig5 table3 fig6 fig7 \
//	             fig8 fig9 fig10 fig11 stragglers phases overheads ablations
//
// The "availability" artifact runs the canned fault storm and reports
// QoS-met %, MTTR, and the displaced-work half-life. The "slodetect"
// artifact scores the burn-rate alert stream against a scripted crash storm
// (precision, recall, detection latency vs the heartbeat detector). An
// unknown artifact name exits 2.
//
// The -quick flag shrinks every scenario (fewer workloads, shorter
// horizons) for a fast smoke pass. -cpuprofile and -memprofile capture
// pprof profiles of whatever artifacts run, for drilling into where the
// engine itself spends time.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"quasar/internal/experiments"
	"quasar/internal/par"
	"quasar/internal/trace"
)

func main() {
	quick := flag.Bool("quick", false, "shrink scenarios for a fast pass")
	workers := flag.Int("workers", 0, "worker goroutines for parallel fan-outs (0 = GOMAXPROCS); never changes results")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile at exit to this file")
	flag.Parse()
	par.SetDefaultWorkers(*workers)

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		die(err)
		die(pprof.StartCPUProfile(f))
		defer func() {
			pprof.StopCPUProfile()
			_ = f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			die(err)
			runtime.GC() // settle the heap so the profile shows retained memory
			die(pprof.WriteHeapProfile(f))
			_ = f.Close()
		}()
	}

	artifacts := flag.Args()
	if len(artifacts) == 0 {
		artifacts = []string{"fig1", "fig2", "table1", "table2", "fig3", "fig5",
			"table3", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11",
			"stragglers", "phases", "overheads", "ablations", "availability",
			"slodetect"}
	}

	var fig5res *experiments.Fig5Result // shared by fig5 and table3
	var fig6res *experiments.Fig6Result // shared by fig6 and fig7
	var fig9res *experiments.Fig9Result // shared by fig9 and fig10

	for _, name := range artifacts {
		start := time.Now()
		switch name {
		case "fig1":
			cfg := trace.DefaultConfig()
			if *quick {
				cfg.Servers, cfg.Workloads, cfg.Days = 200, 800, 14
			}
			experiments.Fig1(cfg).Print(os.Stdout)
		case "fig2":
			experiments.Fig2(3).Print(os.Stdout)
		case "table1":
			experiments.Table1().Print(os.Stdout)
		case "table2":
			cfg := experiments.DefaultTable2Config()
			if *quick {
				cfg.Hadoop, cfg.Memcached, cfg.Webserver, cfg.SingleNode = 4, 4, 4, 40
			}
			experiments.Table2(cfg).Print(os.Stdout)
		case "fig3":
			cfg := experiments.DefaultFig3Config()
			if *quick {
				cfg.EntriesGrid = []int{1, 2, 4, 8}
				cfg.PerClass = 3
			}
			experiments.Fig3(cfg).Print(os.Stdout)
		case "fig5", "table3":
			if fig5res == nil {
				cfg := experiments.DefaultFig5Config()
				if *quick {
					cfg.Jobs = 4
				}
				var err error
				fig5res, err = experiments.Fig5(cfg)
				die(err)
			}
			if name == "fig5" {
				fig5res.Print(os.Stdout)
			} else {
				fig5res.Table3(os.Stdout)
			}
		case "fig6", "fig7":
			if fig6res == nil {
				cfg := experiments.DefaultFig6Config()
				if *quick {
					cfg.Hadoop, cfg.Storm, cfg.Spark, cfg.BestEffort = 4, 2, 2, 40
					cfg.HorizonSecs = 10000
				}
				var err error
				fig6res, err = experiments.Fig6(cfg)
				die(err)
			}
			if name == "fig6" {
				fig6res.Print(os.Stdout)
			}
			// fig7 is printed as part of fig6's output.
		case "fig8":
			cfg := experiments.DefaultFig8Config()
			if *quick {
				cfg.HorizonSecs = 8000
				cfg.BestEffort = 150
			}
			res, err := experiments.Fig8(cfg)
			die(err)
			res.Print(os.Stdout)
		case "fig9", "fig10":
			if fig9res == nil {
				cfg := experiments.DefaultFig9Config()
				if *quick {
					cfg.HorizonSecs = 6 * 3600
					cfg.BestEffort = 300
				}
				var err error
				fig9res, err = experiments.Fig9(cfg)
				die(err)
			}
			if name == "fig9" {
				fig9res.Print(os.Stdout)
			}
			// fig10 is printed as part of fig9's output.
		case "fig11":
			cfg := experiments.DefaultFig11Config()
			if *quick {
				cfg.Workloads = 200
				cfg.HorizonSecs = 9000
			}
			res, err := experiments.Fig11(cfg)
			die(err)
			res.Print(os.Stdout)
		case "stragglers":
			experiments.Stragglers(7, 1).Print(os.Stdout)
		case "phases":
			n := 25
			if *quick {
				n = 10
			}
			res, err := experiments.Phases(n, 2)
			die(err)
			res.Print(os.Stdout)
		case "overheads":
			n := 12
			if *quick {
				n = 6
			}
			res, err := experiments.Overheads(n, 3)
			die(err)
			res.Print(os.Stdout)
		case "ablations":
			res, err := experiments.Ablations(5)
			die(err)
			res.Print(os.Stdout)
		case "availability":
			cfg := experiments.DefaultAvailabilityConfig()
			if *quick {
				cfg.Hadoop, cfg.Spark, cfg.Services = 2, 1, 3
				cfg.SingleNode, cfg.BestEffort = 5, 8
				cfg.HorizonSecs = 8000
			}
			res, err := experiments.Availability(cfg)
			die(err)
			res.Print(os.Stdout)
		case "slodetect":
			cfg := experiments.DefaultSLODetectConfig()
			if *quick {
				cfg.SingleNode = 20
				cfg.Crashes = 2
				cfg.HorizonSecs = 7000
			}
			res, err := experiments.SLODetect(cfg)
			die(err)
			res.Print(os.Stdout)
		default:
			_, _ = fmt.Fprintf(os.Stderr, "unknown artifact %q\n", name)
			os.Exit(2)
		}
		fmt.Printf("[%s done in %.1fs]\n\n", name, time.Since(start).Seconds())
	}
}

func die(err error) {
	if err != nil {
		_, _ = fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
}
