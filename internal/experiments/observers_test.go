package experiments

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"quasar/internal/core"
	"quasar/internal/loadgen"
	"quasar/internal/perfmodel"
	"quasar/internal/workload"
)

// mixConfig sizes a Table 2-style Quasar run on the local cluster: batch
// frameworks, fluctuating latency-critical services, single-node jobs and
// best-effort filler.
type mixConfig struct {
	Hadoop, Spark, Storm int
	Services             int
	SingleNode           int
	BestEffort           int
	HorizonSecs          float64
	Seed                 int64
}

// runMix builds the scenario with the tracer and SLO engine as asked,
// submits the mix 5 simulated seconds apart, and runs the horizon. It
// returns the submitted tasks in submission order.
func runMix(cfg mixConfig, traced, slo bool) (*Scenario, []*core.Task, error) {
	s, err := NewScenario(ScenarioConfig{
		Cluster: Local40, Manager: KindQuasar, Seed: cfg.Seed,
		MaxNodes: 4, SeedLib: 3, Trace: traced, SLO: slo,
	})
	if err != nil {
		return nil, nil, err
	}
	at := 0.0
	var tasks []*core.Task
	submit := func(spec workload.Spec) {
		w := s.U.New(spec)
		var load loadgen.Pattern
		if w.Type.Class() == perfmodel.LatencyCritical {
			load = loadgen.Fluctuating{Min: 0.4 * w.Target.QPS, Max: 0.9 * w.Target.QPS, Period: 6000}
		}
		tasks = append(tasks, s.RT.Submit(w, at, load))
		at += 5
	}
	for i := 0; i < cfg.Hadoop; i++ {
		submit(workload.Spec{Type: workload.Hadoop, Family: i % 3, MaxNodes: 3, TargetSlack: 1.2,
			Dataset: workload.Dataset{Name: "bench", SizeGB: 20, WorkMult: 1.5, MemMult: 1}})
	}
	for i := 0; i < cfg.Spark; i++ {
		submit(workload.Spec{Type: workload.Spark, Family: i % 3, MaxNodes: 3, TargetSlack: 1.2,
			Dataset: workload.Dataset{Name: "bench", SizeGB: 20, WorkMult: 4, MemMult: 1}})
	}
	for i := 0; i < cfg.Storm; i++ {
		submit(workload.Spec{Type: workload.Storm, Family: i % 3, MaxNodes: 3, TargetSlack: 1.2,
			Dataset: workload.Dataset{Name: "bench", SizeGB: 20, WorkMult: 6, MemMult: 1}})
	}
	svcTypes := []workload.Type{workload.Webserver, workload.Memcached, workload.Cassandra}
	for i := 0; i < cfg.Services; i++ {
		submit(workload.Spec{Type: svcTypes[i%3], Family: -1, MaxNodes: 3})
	}
	for i := 0; i < cfg.SingleNode; i++ {
		submit(workload.Spec{Type: workload.SingleNode, Family: -1, TargetSlack: 1.3})
	}
	for i := 0; i < cfg.BestEffort; i++ {
		submit(workload.Spec{Type: workload.SingleNode, Family: -1, BestEffort: true})
	}
	s.RT.Run(cfg.HorizonSecs)
	s.RT.Stop()
	return s, tasks, nil
}

// fingerprint hashes what a finished run decided and delivered: per task its
// ID, status, progress, start and finish times and normalized performance
// (floats by bit pattern), then the cluster's used-cores series, the runtime
// RNG's next draw and the Quasar manager's snapshot.
func fingerprint(t *testing.T, s *Scenario, tasks []*core.Task) string {
	t.Helper()
	var buf []byte
	putFloat := func(v float64) { buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v)) }
	for _, task := range tasks {
		buf = append(buf, task.W.ID...)
		buf = append(buf, 0, byte(task.Status))
		putFloat(task.Progress)
		putFloat(task.StartAt)
		putFloat(task.DoneAt)
		putFloat(PerfNormalizedToTarget(s.RT, task))
	}
	for i, v := range s.RT.UsedSeries.Vals {
		putFloat(s.RT.UsedSeries.Times[i])
		putFloat(v)
	}
	// Every component derives its stream from the runtime RNG at setup, so a
	// draw from it mid-run perturbs nothing this run reads; its next value
	// still exposes the draw.
	putFloat(s.RT.RNG.Float64())
	snap, err := s.Q.MarshalSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(append(buf, snap...))
	return hex.EncodeToString(sum[:])
}

// TestObserversDoNotPerturb holds the monitoring layers to being pure
// observers: attaching the tracer, the SLO engine or the heartbeat failure
// detector to a run must not change a single decision or outcome of it.
// Each one reads runtime state on ticks and events; none may draw from the
// runtime's RNG, reorder events or feed back into the manager.
func TestObserversDoNotPerturb(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the mix four times and the availability mix twice")
	}
	mix := mixConfig{
		Hadoop: 4, Spark: 2, Storm: 2, Services: 4, SingleNode: 20, BestEffort: 30,
		HorizonSecs: 8000, Seed: 7,
	}
	var want string
	for _, traced := range []bool{false, true} {
		for _, slo := range []bool{false, true} {
			s, tasks, err := runMix(mix, traced, slo)
			if err != nil {
				t.Fatal(err)
			}
			if traced && s.Tracer.Len() == 0 {
				t.Fatal("traced run emitted no events")
			}
			if slo && s.SLO.Tracked() == 0 {
				t.Fatal("monitored run tracked no workloads")
			}
			got := fingerprint(t, s, tasks)
			if want == "" {
				want = got
			} else if got != want {
				t.Errorf("tracer=%v slo=%v: fingerprint %.12s, bare run %.12s", traced, slo, got, want)
			}
		}
	}

	avail := DefaultAvailabilityConfig()
	avail.HorizonSecs = 8000
	healthy := func(detector bool) string {
		s, err := NewScenario(ScenarioConfig{
			Cluster: Local40, Manager: KindQuasar, Seed: avail.Seed,
			MaxNodes: 4, SeedLib: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		if detector {
			s.RT.EnableFailureDetector(avail.Detector)
		}
		tasks := submitAvailabilityMix(s, avail)
		s.RT.Run(avail.HorizonSecs)
		s.RT.Stop()
		return fingerprint(t, s, tasks)
	}
	off, on := healthy(false), healthy(true)
	if off != on {
		t.Errorf("failure detector on a healthy cluster: fingerprint %.12s, without it %.12s", on, off)
	}
	t.Logf("fingerprints: mix %.12s, healthy availability mix %.12s", want, off)
}
