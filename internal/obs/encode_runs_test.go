package obs_test

import (
	"fmt"
	"path/filepath"
	"testing"

	"quasar/internal/chaos"
	"quasar/internal/core"
	"quasar/internal/experiments"
	"quasar/internal/loadgen"
	"quasar/internal/obs"
	"quasar/internal/perfmodel"
	"quasar/internal/serve"
	"quasar/internal/workload"
)

// checkRecordedRun holds every event a real run recorded against the reference
// encoder, and requires the kinds of event the run exists to cover.
func checkRecordedRun(t *testing.T, events []obs.Event, wantNames ...string) {
	t.Helper()
	seen := map[string]int{}
	for i := range events {
		obs.CheckEventLine(t, &events[i])
		seen[events[i].Name]++
	}
	for _, name := range wantNames {
		if seen[name] == 0 {
			t.Errorf("run recorded no %q event (%d events, %v)", name, len(events), seen)
		}
	}
}

// TestRecordedRunsMatchReference is the differential proof on real payloads:
// every event of a journal replay on a 200-server world (full 200-candidate
// rankings, serve.apply and apply-error instants) and of the canned chaos+SLO
// storm scenario (fault, recovery, alert and adjustment events) encodes to the
// bytes the reference encoder gives.
func TestRecordedRunsMatchReference(t *testing.T) {
	t.Run("serve replay", func(t *testing.T) {
		cfg := serve.Config{Servers: 200, Seed: 20140304, SeedLib: 2, SLO: true, MaxNodes: 4}
		dataset := &workload.Dataset{Name: "serve", SizeGB: 5, WorkMult: 0.05, MemMult: 0.8}
		var script []serve.ScriptEntry
		ordinal := 7 * cfg.SeedLib
		var fillers []string
		for i := 0; i < 120; i++ {
			at := float64(i + 1)
			switch {
			case i%5 == 4 && len(fillers) > 0:
				script = append(script, serve.ScriptEntry{At: at, Evict: fillers[0]})
				fillers = fillers[1:]
			case i%5 == 3:
				tp := []workload.Type{workload.SingleNode, workload.Hadoop, workload.Memcached, workload.Spark, workload.Webserver}[i/5%5]
				req := &serve.SubmitRequest{Type: tp.String(), Family: -1, MaxNodes: 2, Dataset: dataset}
				if tp.Class() != perfmodel.LatencyCritical {
					req.TargetSlack = 2
				}
				ordinal++
				script = append(script, serve.ScriptEntry{At: at, Submit: req})
			default:
				ordinal++
				fillers = append(fillers, fmt.Sprintf("%s-%04d", workload.SingleNode, ordinal))
				script = append(script, serve.ScriptEntry{At: at, Submit: &serve.SubmitRequest{
					Type: workload.SingleNode.String(), Family: -1, BestEffort: true, Dataset: dataset}})
			}
		}
		script = append(script, serve.ScriptEntry{At: 121, Evict: "nope-0001"})
		journal := filepath.Join(t.TempDir(), "run.journal")
		if _, err := serve.BuildJournal(journal, cfg, 400, script); err != nil {
			t.Fatal(err)
		}
		buf := obs.NewBufferSink()
		if _, err := serve.Replay(journal, serve.ReplayOptions{Sinks: []obs.Sink{buf}}); err != nil {
			t.Fatal(err)
		}
		checkRecordedRun(t, buf.Events(), "decision", "admit", "serve.apply", "serve.apply-error")
	})

	t.Run("chaos+SLO storm", func(t *testing.T) {
		s, err := experiments.NewScenario(experiments.ScenarioConfig{
			Cluster: experiments.Local40, Manager: experiments.KindQuasar, Seed: 1, MaxNodes: 4,
			SeedLib: 3, Misestimate: true, Trace: true, SLO: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.AttachFaults(chaos.DefaultStormPlan(), core.DefaultDetectorOptions()); err != nil {
			t.Fatal(err)
		}
		// quasar-sim's default mix at a third of its size.
		at := 0.0
		submit := func(spec workload.Spec) {
			w := s.U.New(spec)
			var load loadgen.Pattern
			if w.Type.Class() == perfmodel.LatencyCritical {
				load = loadgen.Fluctuating{Min: 0.4 * w.Target.QPS, Max: 0.9 * w.Target.QPS, Period: 6000}
			}
			s.RT.Submit(w, at, load)
			at += 5
		}
		sim := workload.Dataset{Name: "sim", SizeGB: 20, WorkMult: 1.5, MemMult: 1}
		for i := 0; i < 3; i++ {
			submit(workload.Spec{Type: workload.Hadoop, Family: i % 3, MaxNodes: 3, TargetSlack: 1.2, Dataset: sim})
			submit(workload.Spec{Type: []workload.Type{workload.Webserver, workload.Memcached, workload.Cassandra}[i], Family: -1, MaxNodes: 3})
		}
		submit(workload.Spec{Type: workload.Spark, Family: 0, MaxNodes: 3, TargetSlack: 1.2, Dataset: sim})
		submit(workload.Spec{Type: workload.Storm, Family: 1, MaxNodes: 3, TargetSlack: 1.2, Dataset: sim})
		for i := 0; i < 7; i++ {
			submit(workload.Spec{Type: workload.SingleNode, Family: -1, TargetSlack: 1.3})
		}
		for i := 0; i < 14; i++ {
			submit(workload.Spec{Type: workload.SingleNode, Family: -1, BestEffort: true})
		}
		s.RT.Run(6000)
		s.RT.Stop()
		checkRecordedRun(t, s.Tracer.Events(), "decision", "admit", "scale", "reclaim", "alert_fire", "fault-crash")
	})
}
