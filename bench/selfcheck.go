package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strings"
)

// reportPrefix marks the line on which a run prints its full report as
// JSON, for the orchestrating modes below; the driver reads only the last
// line.
const reportPrefix = "report "

// benchmarkFile is the driver's contract at the repository root.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// child runs one (workload, seed) in a fresh process of this binary, so heap
// and GC state never leak between runs, and returns its report.
func child(c config, workload string, seed int64, traced bool) (*report, error) {
	args := []string{
		"-workload", workload, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(c.seconds), "-out", c.outDir,
	}
	if traced {
		args = append(args, "-trace", "1")
	}
	if c.quick {
		args = append(args, "-quick")
	}
	cmd := exec.Command(os.Args[0], args...)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	for _, line := range strings.Split(out.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, reportPrefix); ok {
			var rep report
			if err := json.Unmarshal([]byte(rest), &rep); err != nil {
				return nil, err
			}
			return &rep, nil
		}
	}
	return nil, fmt.Errorf("%s seed %d: no report line", workload, seed)
}

// worse returns by what share of a the value b is worse, given the metric's
// direction (negative when b is better).
func worse(a, b float64, better string) float64 {
	if a == 0 { //lint:allow(floatcmp) exact zero guards the division
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// runSelfcheck runs two interleaved A/A sets of the same binary — A1 B1 A2
// B2 ..., both sets over the same seeds — and checks every workload x
// end-to-end metric against its declared bound: the spread (IQR/median)
// within each set, and the set-to-set drift of the medians. It prints the
// table committed as NOISE.md and exits non-zero on any miss.
func runSelfcheck(c config, repeats int) int {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		warnf("bench: -selfcheck runs from the repository root: %v\n", err)
		return 2
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		warnf("bench: BENCHMARK.json: %v\n", err)
		return 2
	}
	host := fingerprint()
	fmt.Printf("# A/A noise table\n\n`-selfcheck -repeats %d -seconds %g` on %s.\n\n", repeats, c.seconds, host)
	fmt.Printf("Two interleaved sets of the same binary over seeds 1..%d. spread = IQR/median within a set (the larger of the two sets); drift = how much worse set B's median is than set A's. Both must stay within the bound (set-up is exempt from the spread rule, as in the driver).\n\n", repeats)
	fmt.Println("| workload | metric | median A | median B | spread | drift | bound | ok |")
	fmt.Println("|---|---|---:|---:|---:|---:|---:|---|")
	misses := 0
	for _, w := range workloads {
		sets := [2]map[string][]float64{{}, {}}
		for i := 0; i < repeats; i++ {
			for s := range sets {
				rep, err := child(c, w.name, int64(i+1), false)
				if err != nil {
					warnf("bench: %v\n", err)
					return 1
				}
				if !rep.Correct {
					warnf("bench: %s seed %d incorrect: %v\n", w.name, i+1, rep.Problems)
					misses++
				}
				for k, v := range rep.Metrics {
					sets[s][k] = append(sets[s][k], v)
				}
			}
		}
		for _, m := range bf.EndToEnd {
			a, b := sets[0][m.Name], sets[1][m.Name]
			sp := spread(a)
			if s := spread(b); s > sp {
				sp = s
			}
			drift := worse(median(a), median(b), m.Better)
			ok := drift <= m.Bound && (sp <= m.Bound || m.Name == "setup_s")
			mark := "yes"
			if !ok {
				mark = "**NO**"
				misses++
			}
			fmt.Printf("| %s | %s | %.6g | %.6g | %.2f%% | %+.2f%% | %.1f%% | %s |\n",
				w.name, m.Name, median(a), median(b), 100*sp, 100*drift, 100*m.Bound, mark)
		}
	}
	fmt.Printf("\n%d misses.\n", misses)
	if misses > 0 {
		return 1
	}
	return 0
}

// runLedger runs every workload `repeats` times untraced and once traced and
// prints the whole ledger: end-to-end medians with their spread, the traced
// per-layer split, and the tracing overhead. It claims nothing.
func runLedger(c config, repeats int) int {
	type entry struct {
		Runs     int                `json:"runs"`
		Units    int                `json:"units"`
		Samples  int                `json:"op_samples"`
		Median   map[string]float64 `json:"median"`
		Spread   map[string]float64 `json:"spread"`
		Tail     map[string]float64 `json:"tail"`
		Layers   map[string]float64 `json:"layers"`
		Overhead float64            `json:"trace_overhead_frac"`
	}
	host := fingerprint()
	summary := struct {
		Host      hostInfo          `json:"host"`
		Seconds   float64           `json:"seconds"`
		Workloads map[string]*entry `json:"workloads"`
		Claim     any               `json:"claim"`
	}{Host: host, Seconds: c.seconds, Workloads: map[string]*entry{}}
	for _, w := range workloads {
		vals := map[string][]float64{}
		e := &entry{Runs: repeats, Median: map[string]float64{}, Spread: map[string]float64{}}
		for i := 0; i < repeats; i++ {
			rep, err := child(c, w.name, c.seed+int64(i), false)
			if err != nil || !rep.Correct {
				warnf("bench: %s: %v %v\n", w.name, err, rep)
				return 1
			}
			for k, v := range rep.Metrics {
				vals[k] = append(vals[k], v)
			}
			e.Units, e.Samples, e.Tail = rep.Units, rep.Samples, rep.Tail
		}
		traced, err := child(c, w.name, c.seed, true)
		if err != nil || !traced.Correct {
			warnf("bench: %s traced: %v %v\n", w.name, err, traced)
			return 1
		}
		e.Layers = traced.Layers
		fmt.Printf("## %s\n\n| end-to-end metric | median of %d | spread | unit |\n|---|---:|---:|---|\n", w.name, repeats)
		for _, d := range endToEnd {
			e.Median[d.name], e.Spread[d.name] = median(vals[d.name]), spread(vals[d.name])
			fmt.Printf("| %s | %.6g | %.2f%% | %s |\n", d.name, e.Median[d.name], 100*e.Spread[d.name], d.unit)
		}
		// Traced wall over all units against the untraced median unit.
		e.Overhead = traced.Layers["trace.run_wall_s"]/(e.Median["run_wall_s"]*float64(traced.Units)) - 1
		traced.Layers["trace.overhead_frac"] = e.Overhead
		fmt.Printf("\n%d units per run, %d op samples per run; trace.overhead_frac %+.3f\n\n| per-layer metric (one traced run) | value | unit |\n|---|---:|---|\n", e.Units, e.Samples, e.Overhead)
		for _, d := range perLayer {
			if v := traced.Layers[d.name]; v != 0 { //lint:allow(floatcmp) unset layers read exactly zero
				fmt.Printf("| %s | %.6g | %s |\n", d.name, v, d.unit)
			}
		}
		fmt.Println()
		summary.Workloads[w.name] = e
	}
	b, err := json.Marshal(summary)
	if err != nil {
		warnf("bench: %v\n", err)
		return 1
	}
	fmt.Println(string(b))
	return 0
}
