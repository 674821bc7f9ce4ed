package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"quasar/internal/cluster"
	"quasar/internal/core"
)

func TestPercentileNeedsSamplesBeyond(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, ok := percentile(xs, 50); v != 100 || !ok {
		t.Errorf("p50 of 1..200 = %v, %v; want 100, true", v, ok)
	}
	if v, ok := percentile(xs, 95); v != 190 || !ok {
		t.Errorf("p95 of 1..200 = %v, %v; want 190 with exactly 10 beyond", v, ok)
	}
	if _, ok := percentile(xs, 96); ok {
		t.Error("p96 of 200 samples has only 8 beyond and must be refused")
	}
	if _, ok := percentile(nil, 50); ok {
		t.Error("empty sample must not report a percentile")
	}
}

// The driver computes spreads with Python's statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q3 := quartiles(xs)
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v; python gives 2.75, 8.25", q1, q3)
	}
	if got := spread(xs); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread(1..10) = %v, want 5.5/5.5", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
}

func TestInputsAreAFunctionOfTheSeed(t *testing.T) {
	a, b, c := tcpSchedule(7, 300e6), tcpSchedule(7, 300e6), tcpSchedule(8, 300e6)
	if len(a) == 0 || !reflect.DeepEqual(a, b) {
		t.Error("same seed must give the identical request schedule")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds must give different request schedules")
	}
	cfg := serveWorld(true, 1, 1)
	script := func(seed int64) any {
		s, ids := replayScript(unitCtx{config: config{seed: seed}}, cfg, 200)
		return []any{s, ids}
	}
	if !reflect.DeepEqual(script(7), script(7)) {
		t.Error("same seed must give the identical journal script")
	}
	if reflect.DeepEqual(script(7), script(8)) {
		t.Error("different seeds must give different journal scripts")
	}
}

// failureAware is a manager that records what reaches it.
type failureAware struct {
	core.Manager
	dead, restored, ticks int
}

func (f *failureAware) Name() string                               { return "fake" }
func (f *failureAware) OnTick(float64)                             { f.ticks++ }
func (f *failureAware) OnServerDead(*cluster.Server, []*core.Task) { f.dead++ }
func (f *failureAware) OnServerRestored(*cluster.Server)           { f.restored++ }

type plainManager struct{ core.Manager }

func TestDecoratorForwardsFailureAware(t *testing.T) {
	inner := &failureAware{}
	dec, tm := traceManager(inner, newRecorder())
	fa, ok := dec.(core.FailureAware)
	if !ok {
		t.Fatal("decorating a FailureAware manager must stay FailureAware")
	}
	fa.OnServerDead(nil, nil)
	fa.OnServerRestored(nil)
	dec.OnTick(5)
	if inner.dead != 1 || inner.restored != 1 || inner.ticks != 1 || tm.tick.calls != 1 {
		t.Errorf("callbacks not forwarded: %+v, decorator saw %d ticks", inner, tm.tick.calls)
	}
	if dec, _ := traceManager(plainManager{}, newRecorder()); dec != nil {
		if _, ok := dec.(core.FailureAware); ok {
			t.Error("decorating a plain manager must not invent FailureAware")
		}
	}
}

// quickRun runs one workload in -quick mode.
func quickRun(t *testing.T, name string, traced bool) *report {
	t.Helper()
	c := config{workload: name, seed: 3, seconds: 1, quick: true, traced: traced, outDir: t.TempDir()}
	rep, err := runWorkload(findWorkload(name), c, hostInfo{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Correct {
		t.Fatalf("%s: incorrect: %v", name, rep.Problems)
	}
	return rep
}

func TestDecoratorsLeaveTheResultUnchanged(t *testing.T) {
	plain, traced := quickRun(t, "sim_day_mixed", false), quickRun(t, "sim_day_mixed", true)
	if plain.Hash == "" || plain.Hash != traced.Hash {
		t.Errorf("result hash %q untraced, %q traced", plain.Hash, traced.Hash)
	}
	if traced.Layers["core.ontick_calls"] == 0 || traced.Layers["trace.spans"] == 0 {
		t.Errorf("traced run recorded nothing: %v", traced.Layers)
	}
}

func TestQuickSmoke(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			rep := quickRun(t, w.name, false)
			for _, d := range endToEnd {
				if v := rep.Metrics[d.name]; !(v > 0) || math.IsInf(v, 0) {
					t.Errorf("%s = %v, want a positive number", d.name, v)
				}
			}
			if line := driverLine(rep); len(line) == 0 || line[0] != '{' {
				t.Errorf("driver line %q", line)
			}
		})
	}
}

// BENCHMARK.json is the driver's contract; the binary must print exactly
// the workloads and metrics it declares.
func TestBenchmarkFileMatchesBinary(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d built", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: declared %q, built %q", i, w.Name, workloads[i].name)
		}
	}
	same := func(kind string, declared []struct{ Name, Unit string }, built []metricDef) {
		if len(declared) != len(built) {
			t.Fatalf("%s: %d metrics declared, %d printed", kind, len(declared), len(built))
		}
		for i, d := range declared {
			if d.Name != built[i].name || d.Unit != built[i].unit {
				t.Errorf("%s %d: declared %s (%s), printed %s (%s)", kind, i, d.Name, d.Unit, built[i].name, built[i].unit)
			}
		}
	}
	same("end_to_end", bf.EndToEnd, endToEnd)
	same("per_layer", bf.PerLayer, perLayer)
}
