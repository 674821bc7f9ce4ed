// Command bench is the repository's performance ledger: one program that
// sets up, runs and checks four named workloads, prints every end-to-end
// metric by name with its unit, and can re-run a workload traced to
// attribute its time to layers. It measures every layer from outside —
// driving sim.Engine itself, decorating public interfaces, scraping the
// daemon's HTTP surfaces and micro-probing public functions — and claims no
// gain. See README.md for the workloads, the metric glossary and the noise
// rules; BENCHMARK.json at the repository root is the driver's contract.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// refSeconds is the run length the workload sizes were calibrated for on
// the 2-core reference box (BENCHMARK.json run_seconds). --seconds scales
// the amount of fixed work relative to it.
const refSeconds = 20

// metricDef names one reported metric.
type metricDef struct {
	name, unit string
}

// endToEnd lists the metrics a user of the system would see, in report
// order. Every workload reports all of them, from untraced runs only.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"run_wall_s", "s"},
	{"op_ms_p50", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"alloc_kb_per_op", "kB"},
	{"heap_end_mb", "MB"},
	{"ok_frac", "fraction"},
	{"qos_met_frac", "fraction"},
	{"cpu_util_mean", "fraction"},
}

// config is one invocation of a workload.
type config struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	quick    bool
	outDir   string
}

// unitCtx is what one unit of a workload is prepared from. A run measures
// one or more units: identically sized pieces of fixed work whose inputs
// come from (seed, index). World seeds are fixed per workload.
type unitCtx struct {
	config
	index int
	// rec is non-nil on traced runs: decorators record spans into it.
	rec *recorder
	// dir is a scratch directory for the unit's files, inside the checkout.
	dir string
}

// unitResult is what one measured unit reports.
type unitResult struct {
	wallS     float64
	cpuMS     float64
	allocKB   float64
	heapEndMB float64
	opMS      []float64 // per-op host latency
	attempted int
	failed    int
	qosMet    float64
	cpuUtil   float64
	hash      string
	problems  []string           // output checks that failed
	layers    map[string]float64 // per-layer metrics, traced runs only
}

// prepared is a unit after set-up: run measures it, close releases it.
// close must be safe to call whether or not run was called.
type prepared struct {
	run   func() (*unitResult, error)
	close func()
}

// workloadDef is one named workload. Names are permanent.
type workloadDef struct {
	name string
	why  string
	// refUnits is how many units a refSeconds run measures.
	refUnits int
	prepare  func(c unitCtx) (*prepared, error)
}

var workloads = []workloadDef{simDayMixed, simScaleChurn, serveOpenTCP, serveReplay}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// report is one finished run of one workload: the driver contract's last
// line is derived from it, and selfcheck/ledger aggregate many of them.
type report struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Traced    bool               `json:"traced"`
	Host      hostInfo           `json:"host"`
	Units     int                `json:"units"`
	Setups    int                `json:"setups"`
	Samples   int                `json:"op_samples"`
	UnitWallS []float64          `json:"unit_wall_s"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Problems  []string           `json:"problems,omitempty"`
	Hash      string             `json:"hash"`
	Metrics   map[string]float64 `json:"metrics"`
	// Tail holds further op percentiles, printed beside the gated ones.
	Tail   map[string]float64 `json:"tail,omitempty"`
	Layers map[string]float64 `json:"layers,omitempty"`
}

// tailPercentiles are the op percentiles reported beside the gated median.
var tailPercentiles = []float64{90, 95, 99}

// minSetups is how many times set-up is measured per run: setup_s is the
// median, so one cold first build does not decide it.
const minSetups = 3

// runWorkload performs one run: set up at least minSetups times, measure the
// workload's units, aggregate.
func runWorkload(w *workloadDef, c config, host hostInfo) (*report, error) {
	units, setups := 1, 1 // -quick
	if !c.quick {
		units = max(1, int(float64(w.refUnits)*c.seconds/refSeconds+0.5))
		setups = max(units, minSetups)
	}
	var rec *recorder
	if c.traced {
		rec = newRecorder()
	}
	runDir := filepath.Join(c.outDir, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)

	var setupS []float64
	var results []*unitResult
	for i := 0; i < setups; i++ {
		uc := unitCtx{config: c, index: i, rec: rec, dir: filepath.Join(runDir, fmt.Sprintf("u%d", i))}
		if err := os.MkdirAll(uc.dir, 0o755); err != nil {
			return nil, err
		}
		t0 := time.Now()
		p, err := w.prepare(uc)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up %d: %w", w.name, i, err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		if i < units {
			ur, err := p.run()
			if err != nil {
				p.close()
				return nil, fmt.Errorf("%s: unit %d: %w", w.name, i, err)
			}
			results = append(results, ur)
		}
		p.close() // the extra set-ups beyond the units are only timed
		if err := os.RemoveAll(uc.dir); err != nil {
			return nil, err
		}
	}
	rep := aggregate(w.name, c, host, setupS, results)
	if rec != nil {
		rep.Layers["trace.spans"] = float64(len(rec.spans))
		rep.Layers["trace.self_sum_frac"] = rec.selfSum() / rep.Layers["trace.run_wall_s"]
		if err := rec.write(filepath.Join(c.outDir, w.name+".spans.jsonl")); err != nil {
			return nil, err
		}
	}
	checkHash(rep, c)
	return rep, nil
}

// aggregate folds unit results into the run's report: medians across units
// for the per-unit quantities, pooled op samples for the percentiles.
func aggregate(name string, c config, host hostInfo, setupS []float64, units []*unitResult) *report {
	rep := &report{
		Workload: name, Seed: c.seed, Seconds: c.seconds, Traced: c.traced, Host: host,
		Units: len(units), Setups: len(setupS), Correct: true,
		Metrics: map[string]float64{}, Tail: map[string]float64{}, Layers: map[string]float64{},
	}
	var wall, cpuOp, allocOp, heap, qos, util, pooled []float64
	var hashes []string
	layerVals := map[string][]float64{}
	for i, u := range units {
		n := float64(len(u.opMS))
		wall = append(wall, u.wallS)
		cpuOp = append(cpuOp, u.cpuMS/n)
		allocOp = append(allocOp, u.allocKB/n)
		heap = append(heap, u.heapEndMB)
		qos = append(qos, u.qosMet)
		util = append(util, u.cpuUtil)
		pooled = append(pooled, u.opMS...)
		rep.Attempted += u.attempted
		rep.Failed += u.failed
		hashes = append(hashes, u.hash)
		for _, p := range u.problems {
			rep.Problems = append(rep.Problems, fmt.Sprintf("unit %d: %s", i, p))
		}
		for k, v := range u.layers {
			layerVals[k] = append(layerVals[k], v)
		}
	}
	sort.Float64s(pooled)
	rep.Samples = len(pooled)
	p50, ok := percentile(pooled, 50)
	if !ok {
		rep.Problems = append(rep.Problems, fmt.Sprintf("only %d op samples: fewer than %d beyond the median", len(pooled), minBeyond))
	}
	m := rep.Metrics
	m["setup_s"] = median(setupS)
	rep.UnitWallS = wall
	m["run_wall_s"] = median(wall)
	m["op_ms_p50"] = p50
	// Tail percentiles are reported, never gated: on every workload they sit
	// on a cliff between two regimes of ops (idle and busy ticks, requests
	// that did or did not wait for an epoch), so they swing 15-45% between
	// seeds. A percentile without minBeyond samples beyond it is left out.
	for _, q := range tailPercentiles {
		if v, ok := percentile(pooled, q); ok {
			rep.Tail[fmt.Sprintf("op.ms_p%g", q)] = v
		}
	}
	m["cpu_ms_per_op"] = median(cpuOp)
	m["alloc_kb_per_op"] = median(allocOp)
	m["heap_end_mb"] = median(heap)
	m["ok_frac"] = 1 - float64(rep.Failed)/float64(max(rep.Attempted, 1))
	m["qos_met_frac"] = median(qos)
	m["cpu_util_mean"] = median(util)
	for k, vs := range layerVals {
		rep.Layers[k] = foldLayer(k, vs)
	}
	if c.traced {
		for k, v := range rep.Tail {
			rep.Layers[k] = v
		}
		rep.Layers["op.ms_p50"] = p50
		rep.Layers["op.samples"] = float64(len(pooled))
	}
	rep.Hash = strings.Join(hashes, ",")
	if rep.Failed > 0 {
		rep.Problems = append(rep.Problems, fmt.Sprintf("%d of %d ops failed", rep.Failed, rep.Attempted))
	}
	rep.Correct = len(rep.Problems) == 0 && rep.Attempted > 0
	return rep
}

// foldLayer combines one per-layer metric across units: busy times and
// counts add up, peaks take the maximum, everything else (percentiles,
// probes, ratios) the median.
func foldLayer(name string, vs []float64) float64 {
	switch {
	case strings.HasSuffix(name, "_peak"), strings.HasSuffix(name, "_max"):
		m := vs[0]
		for _, v := range vs {
			if v > m {
				m = v
			}
		}
		return m
	case layerSums[name] || strings.HasSuffix(name, "_s") || strings.HasSuffix(name, "_calls"):
		s := 0.0
		for _, v := range vs {
			s += v
		}
		return s
	}
	return median(vs)
}

// checkHash compares the run's result hash with the one an earlier run of
// the same (workload, seed, seconds) left in the out directory: the sim_*
// and serve_replay outputs are pure functions of their inputs, so any
// difference — between repeats, or between a traced and an untraced run —
// fails the run. serve_open_tcp has no stable hash (wall-clock arrival).
func checkHash(rep *report, c config) {
	if rep.Hash == "" || strings.Trim(rep.Hash, ",") == "" {
		return
	}
	path := filepath.Join(c.outDir, fmt.Sprintf("%s.seed%d.sec%g.q%t.hash", rep.Workload, c.seed, c.seconds, c.quick))
	if prev, err := os.ReadFile(path); err == nil {
		if strings.TrimSpace(string(prev)) != rep.Hash {
			rep.Problems = append(rep.Problems, "result hash differs from an earlier run with the same inputs")
			rep.Correct = false
		}
		return
	}
	_ = os.WriteFile(path, []byte(rep.Hash+"\n"), 0o644) // best effort: the check needs a writable out directory
}

// printReport writes the human-readable table: every metric by name with
// its unit, sample counts beside the percentiles, the host fingerprint.
func printReport(w io.Writer, rep *report) {
	fprintf(w, "workload %s seed %d seconds %g traced %t\n", rep.Workload, rep.Seed, rep.Seconds, rep.Traced)
	fprintf(w, "host %s\n", rep.Host)
	fprintf(w, "units %d setups %d op_samples %d attempted %d failed %d correct %t\n",
		rep.Units, rep.Setups, rep.Samples, rep.Attempted, rep.Failed, rep.Correct)
	for _, p := range rep.Problems {
		fprintf(w, "PROBLEM %s\n", p)
	}
	if rep.Host.NoisyHost {
		fprintf(w, "WARNING noisy_host: load average %.2f exceeds nproc/2\n", rep.Host.Load1)
	}
	if !rep.Traced {
		for _, d := range endToEnd {
			fprintf(w, "  %-22s %14.6f %s\n", d.name, rep.Metrics[d.name], d.unit)
		}
		for _, q := range tailPercentiles {
			name := fmt.Sprintf("op.ms_p%g", q)
			if v, ok := rep.Tail[name]; ok {
				fprintf(w, "  %-22s %14.6f ms (not gated)\n", name, v)
			}
		}
		return
	}
	fprintf(w, "  traced run: per-layer metrics only; end-to-end numbers come from untraced runs\n")
	for _, d := range perLayer {
		fprintf(w, "  %-32s %16.6f %s\n", d.name, rep.Layers[d.name], d.unit)
	}
}

// driverLine renders the contract's last line: exactly correct, attempted,
// failed and metrics; end-to-end metrics untraced, per-layer metrics traced.
func driverLine(rep *report) string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs, vals := endToEnd, rep.Metrics
	if rep.Traced {
		defs, vals = perLayer, rep.Layers
	}
	metrics := make(map[string]mv, len(defs))
	for _, d := range defs {
		metrics[d.name] = mv{Value: vals[d.name], Unit: d.unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, metrics})
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	return string(b)
}

// fprintf writes report output, ignoring errors (terminal rendering).
func fprintf(w io.Writer, format string, args ...any) {
	_, _ = fmt.Fprintf(w, format, args...)
}

// warnf writes a diagnostic to standard error.
func warnf(format string, args ...any) { fprintf(os.Stderr, format, args...) }

func main() {
	var c config
	var traceFlag int
	var selfcheck, ledger, list bool
	var repeats int
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	fs.StringVar(&c.workload, "workload", "", "workload to run once (driver mode); see -list")
	fs.Int64Var(&c.seed, "seed", 1, "seed the workload's inputs are generated from")
	fs.Float64Var(&c.seconds, "seconds", refSeconds, "run length the fixed work is sized for")
	fs.IntVar(&traceFlag, "trace", 0, "1 runs with the decorators on and prints per-layer metrics")
	fs.BoolVar(&c.quick, "quick", false, "tiny worlds, one unit, bounds waived (smoke)")
	fs.StringVar(&c.outDir, "out", filepath.Join("bench", "out"), "directory for spans, hashes and scratch files")
	fs.BoolVar(&selfcheck, "selfcheck", false, "run two interleaved A/A sets and check them against BENCHMARK.json")
	fs.BoolVar(&ledger, "ledger", false, "run every workload untraced and traced and print the full ledger")
	fs.IntVar(&repeats, "repeats", 5, "runs per set (-selfcheck) or untraced runs per workload (-ledger)")
	fs.BoolVar(&list, "list", false, "list workloads and metrics")
	_ = fs.Parse(os.Args[1:])
	c.traced = traceFlag != 0

	switch {
	case list:
		for _, w := range workloads {
			fmt.Printf("%-16s %s\n", w.name, w.why)
		}
		return
	case selfcheck:
		os.Exit(runSelfcheck(c, repeats))
	case ledger:
		os.Exit(runLedger(c, repeats))
	}
	w := findWorkload(c.workload)
	if w == nil {
		warnf("bench: unknown workload %q (try -list)\n", c.workload)
		os.Exit(2)
	}
	if c.seconds <= 0 {
		warnf("bench: -seconds must be positive\n")
		os.Exit(2)
	}
	host := fingerprint()
	rep, err := runWorkload(w, c, host)
	if err != nil {
		warnf("bench: %v\n", err)
		os.Exit(1)
	}
	printReport(os.Stdout, rep)
	full, err := json.Marshal(rep)
	if err != nil {
		warnf("bench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(reportPrefix + string(full))
	fmt.Println(driverLine(rep))
}
