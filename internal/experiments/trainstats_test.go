package experiments

import (
	"bytes"
	"testing"

	"quasar/internal/classify"
	"quasar/internal/loadgen"
	"quasar/internal/obs"
	"quasar/internal/sim"
	"quasar/internal/workload"
)

// simulatedDay builds and runs the ledger's sim_day_mixed day (bench/sim.go:
// 40-server local cluster, three diurnal services, 160 batch arrivals, 5 s
// tick) with tracing on, and returns the scenario and its JSONL trace.
func simulatedDay(t *testing.T) (*Scenario, []byte) {
	t.Helper()
	const horizon, jobs = 86400.0, 160
	s, err := NewScenario(ScenarioConfig{Cluster: Local40, Manager: KindQuasar, Seed: 20140301,
		TickSecs: 5, Sample: 60, SeedLib: 12, MaxNodes: 2, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	for i, tp := range []workload.Type{workload.Memcached, workload.Cassandra, workload.Webserver} {
		w := s.U.New(workload.Spec{Type: tp, Family: 0, MaxNodes: 2})
		s.RT.Submit(w, float64(10*i), loadgen.Noisy{
			P:  loadgen.Diurnal{Min: 0.25 * w.Target.QPS, Max: 0.95 * w.Target.QPS, PeakHour: 14 + 3*float64(i)},
			CV: 0.02, Seed: int64(1000 + i),
		})
	}
	types := []workload.Type{workload.Hadoop, workload.Spark, workload.Storm, workload.SingleNode, workload.SingleNode}
	for i, at := range loadgen.PoissonArrivals(sim.NewRNG(1).Stream("arrivals"), 60, 0.95*horizon/jobs, jobs) {
		if at >= horizon {
			break
		}
		mult := 0.2
		if i%5 == 0 {
			mult = 0.5
		}
		s.RT.Submit(s.U.New(workload.Spec{
			Type: types[i%len(types)], Family: -1, BestEffort: i%10 == 9, TargetSlack: 2.0, MaxNodes: 2,
			Dataset: workload.Dataset{Name: "day", SizeGB: 10, WorkMult: mult, MemMult: 0.9},
		}), at, nil)
	}
	for {
		at, ok := s.RT.Eng.NextAt()
		if !ok || at > horizon {
			break
		}
		s.RT.Eng.Step()
	}
	var trace bytes.Buffer
	if err := obs.WriteJSONL(&trace, s.Tracer); err != nil {
		t.Fatal(err)
	}
	return s, trace.Bytes()
}

// TestTrainStatsOnSimulatedDay reads Engine.TrainStats after the simulated
// day: every axis fits, each fit runs between one SGD epoch and the cap, and
// at most every fit stops on a rise. It also guards against a retrain storm.
// The monitor feeds the heterogeneity cells of every running workload back on
// every tick. If each of those writes counted toward RetrainEvery, that axis
// would fit more than ten times as often as the interference axes, which
// change only by appends and re-profiles. Counted once per row per retrain
// interval, it fits about as often.
func TestTrainStatsOnSimulatedDay(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full simulated day")
	}
	t.Parallel()
	s, _ := simulatedDay(t)
	stats := s.Q.Engine().TrainStats()
	epochCap := classify.DefaultOptions().CF.Epochs
	for axis, st := range stats {
		if st.Fits == 0 || st.FitSeconds <= 0 {
			t.Errorf("%s: %+v: want fits and the fitting time booked", classify.Axis(axis), st)
		}
		if st.Rises > st.Fits || st.Epochs < st.Fits || st.Epochs > st.Fits*epochCap {
			t.Errorf("%s: %+v: want rises ≤ fits ≤ epochs ≤ fits × %d", classify.Axis(axis), st, epochCap)
		}
	}
	if het, tol := stats[classify.AxisHetero], stats[classify.AxisTolerated]; het.Fits > 2*tol.Fits {
		t.Errorf("heterogeneity axis fitted %d times, interference-tolerated %d: want at most twice as often",
			het.Fits, tol.Fits)
	}
	for axis, st := range stats {
		t.Logf("%-12s fits %4d  fit %.3fs  epochs %6d (%.1f per fit)  stopped on a rise %d of %d",
			classify.Axis(axis), st.Fits, st.FitSeconds, st.Epochs, float64(st.Epochs)/float64(st.Fits), st.Rises, st.Fits)
	}
}
