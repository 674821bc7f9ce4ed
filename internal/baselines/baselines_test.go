package baselines

import (
	"testing"

	"quasar/internal/classify"
	"quasar/internal/cluster"
	"quasar/internal/core"
	"quasar/internal/loadgen"
	"quasar/internal/sim"
	"quasar/internal/workload"
)

func fixture(t testing.TB, opts Options, seed int64) (*core.Runtime, *Baseline, *workload.Universe) {
	t.Helper()
	platforms := cluster.LocalPlatforms()
	cl, err := cluster.New(platforms, []int{4, 4, 4, 4, 4, 4, 4, 4, 4, 4})
	if err != nil {
		t.Fatal(err)
	}
	rt := core.NewRuntime(cl, core.Options{TickSecs: 5, SampleSecs: 60, Seed: seed})
	u := workload.NewUniverse(platforms, seed+1, 3)
	b := New(rt, opts)
	if b.Engine() != nil {
		var lib []*workload.Instance
		var probers []*classify.GroundTruthProber
		for _, tp := range []workload.Type{workload.Hadoop, workload.Memcached, workload.SingleNode} {
			for i := 0; i < 3; i++ {
				w := u.New(workload.Spec{Type: tp, Family: -1, MaxNodes: 4})
				lib = append(lib, w)
				probers = append(probers, classify.NewGroundTruthProber(w, platforms, sim.NewRNG(int64(100+i))))
			}
		}
		b.Engine().SeedOfflineMany(lib, probers)
	}
	rt.SetManager(b)
	return rt, b, u
}

func TestReservationLLPlacesWorkloads(t *testing.T) {
	rt, b, u := fixture(t, DefaultOptions(), 3)
	w := u.New(workload.Spec{Type: workload.Hadoop, Family: -1, MaxNodes: 8, TargetSlack: 1.3})
	task := rt.Submit(w, 0, nil)
	rt.Run(60)
	if task.Status != core.StatusRunning {
		t.Fatalf("status %v", task.Status)
	}
	if task.NumNodes() < 1 {
		t.Fatal("no nodes placed")
	}
	rt.Stop()
	_ = b
}

func TestMisestimationDistribution(t *testing.T) {
	_, b, _ := fixture(t, DefaultOptions(), 5)
	over, under := 0, 0
	n := 2000
	for i := 0; i < n; i++ {
		f := b.misestimationFactor(string(rune('a'+i%26)) + string(rune('0'+i%10)) + string(rune('A'+i/260)))
		switch {
		case f > 1.05:
			over++
		case f < 0.95:
			under++
		}
	}
	if fo := float64(over) / float64(n); fo < 0.6 || fo > 0.8 {
		t.Fatalf("over-reservation fraction %.2f, want ~0.7", fo)
	}
	if fu := float64(under) / float64(n); fu < 0.12 || fu > 0.28 {
		t.Fatalf("under-reservation fraction %.2f, want ~0.2", fu)
	}
}

func TestNoMisestimationWhenDisabled(t *testing.T) {
	opts := DefaultOptions()
	opts.Misestimate = false
	_, b, _ := fixture(t, opts, 7)
	for i := 0; i < 10; i++ {
		if b.misestimationFactor("x") != 1 {
			t.Fatal("misestimation applied despite being disabled")
		}
	}
}

func TestAutoscaleGrowsOnLoad(t *testing.T) {
	opts := DefaultOptions()
	opts.AutoscaleServices = true
	opts.Misestimate = false
	rt, _, u := fixture(t, opts, 9)
	w := u.New(workload.Spec{Type: workload.Webserver, Family: -1, MaxNodes: 8})
	task := rt.Submit(w, 0, loadgen.Flat{QPS: w.Target.QPS})
	rt.Run(1800)
	rt.Stop()
	if task.NumNodes() <= 1 {
		t.Fatalf("auto-scaler never grew: %d instances", task.NumNodes())
	}
}

func TestAutoscaleShrinksWhenIdle(t *testing.T) {
	opts := DefaultOptions()
	opts.AutoscaleServices = true
	opts.Misestimate = false
	rt, _, u := fixture(t, opts, 11)
	w := u.New(workload.Spec{Type: workload.Webserver, Family: -1, MaxNodes: 8})
	pattern := loadgen.Spike{Base: 0.05 * w.Target.QPS, Peak: w.Target.QPS, Start: 300, Duration: 900, RampSecs: 60}
	task := rt.Submit(w, 0, pattern)
	rt.Run(1300)
	peakNodes := task.NumNodes()
	rt.Run(5000)
	rt.Stop()
	if task.NumNodes() >= peakNodes && peakNodes > 1 {
		t.Fatalf("auto-scaler never shrank: %d -> %d", peakNodes, task.NumNodes())
	}
}

func TestParagonAssignmentPrefersGoodServers(t *testing.T) {
	opts := DefaultOptions()
	opts.Assign = AssignParagon
	opts.Misestimate = false
	rt, b, u := fixture(t, opts, 13)
	if b.Name() != "reservation+paragon" {
		t.Fatalf("name %q", b.Name())
	}
	w := u.New(workload.Spec{Type: workload.SingleNode, Family: -1})
	task := rt.Submit(w, 0, nil)
	rt.Run(120)
	rt.Stop()
	if task.Status != core.StatusRunning && task.Status != core.StatusCompleted {
		t.Fatalf("status %v", task.Status)
	}
	if task.NumNodes() > 0 {
		srv := task.Placements()[0].Server
		if srv.Platform.Name == "A" {
			t.Fatal("Paragon picked the weakest platform on an idle cluster")
		}
	}
}

func TestBaselineDoesNotAdaptBatch(t *testing.T) {
	opts := DefaultOptions()
	opts.Misestimate = false
	rt, _, u := fixture(t, opts, 15)
	w := u.New(workload.Spec{Type: workload.Hadoop, Family: -1, MaxNodes: 8, TargetSlack: 1.3})
	task := rt.Submit(w, 0, nil)
	rt.Run(60)
	n0 := task.NumNodes()
	rt.Run(600)
	rt.Stop()
	if task.Status == core.StatusRunning && task.NumNodes() != n0 {
		t.Fatalf("reservation-based manager adapted the allocation: %d -> %d", n0, task.NumNodes())
	}
}

func TestBestEffortAndQueue(t *testing.T) {
	opts := DefaultOptions()
	opts.Misestimate = false
	rt, b, u := fixture(t, opts, 17)
	for i := 0; i < 5; i++ {
		be := u.New(workload.Spec{Type: workload.SingleNode, Family: -1, BestEffort: true})
		rt.Submit(be, float64(i), nil)
	}
	rt.Run(60)
	rt.Stop()
	running := 0
	for _, task := range rt.Tasks() {
		if task.Status == core.StatusRunning {
			running++
		}
	}
	if running < 4 {
		t.Fatalf("only %d best-effort fillers running", running)
	}
	_ = b.QueueLen()
}
