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
// tick) with tracing on, calling afterEvent once every simulation event has
// been handled, and returns the scenario and its JSONL trace.
func simulatedDay(t *testing.T, afterEvent func(*classify.Engine)) (*Scenario, []byte) {
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
		afterEvent(s.Q.Engine())
	}
	var trace bytes.Buffer
	if err := obs.WriteJSONL(&trace, s.Tracer); err != nil {
		t.Fatal(err)
	}
	return s, trace.Bytes()
}

// TestTrainStatsOnSimulatedDay reads the saving off Engine.TrainStats after
// the simulated day: no axis fits more often than it reaches a retrain point,
// and the heterogeneity axis — fed by the monitor every tick, read only when
// something is classified — never fits most of its points.
func TestTrainStatsOnSimulatedDay(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full simulated day")
	}
	t.Parallel()
	s, _ := simulatedDay(t, func(*classify.Engine) {})
	e := s.Q.Engine()
	e.EnsureTrained() // nothing left pending: points − fits were never fitted
	stats := e.TrainStats()
	for axis, st := range stats {
		if st.Points == 0 || st.Fits == 0 || st.Fits > st.Points || st.FitSeconds <= 0 {
			t.Errorf("%s: %+v: want 0 < fits ≤ retrain points and the fitting time booked", classify.Axis(axis), st)
		}
	}
	if het := stats[classify.AxisHetero]; het.Points < 100 || 2*het.Fits > het.Points {
		t.Errorf("heterogeneity axis %+v: want at least half of the day's retrain points never fitted", het)
	}
	t.Logf("retrain points / fits / fit seconds per axis: %+v", stats)
}

// TestSimulatedDayUnchangedByEarlyFits is the deferral's identity claim on a
// live day rather than on a scripted op sequence (for which see
// classify.TestDeferredFitMatchesEagerOnRandomOps): a second run of the day
// resolves every pending retrain point as soon as the event that reached it
// returns, instead of leaving it to the next reader, and must end with the
// same trace — every classification's estimates, every decision, byte for
// byte — and the same classifier matrices.
func TestSimulatedDayUnchangedByEarlyFits(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full simulated day twice")
	}
	t.Parallel()
	lazy, lazyTrace := simulatedDay(t, func(*classify.Engine) {})
	early, earlyTrace := simulatedDay(t, (*classify.Engine).EnsureTrained)
	if !bytes.Equal(lazyTrace, earlyTrace) {
		t.Errorf("fitting early changed the day's trace: %s", describeDrift(earlyTrace, lazyTrace))
	}
	lazySnap, err := lazy.Q.Engine().MarshalSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	earlySnap, err := early.Q.Engine().MarshalSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(lazySnap, earlySnap) {
		t.Error("fitting early changed the classifier matrices the day ends with")
	}
	lazyHet, earlyHet := lazy.Q.Engine().TrainStats()[classify.AxisHetero], early.Q.Engine().TrainStats()[classify.AxisHetero]
	if lazyHet.Points != earlyHet.Points || lazyHet.Fits >= earlyHet.Fits {
		t.Errorf("heterogeneity axis: deferred %+v, early %+v: want the same retrain points and fewer fits when deferred", lazyHet, earlyHet)
	}
}
