package main

import (
	"time"

	"quasar/internal/cf"
	"quasar/internal/classify"
	"quasar/internal/cluster"
	"quasar/internal/experiments"
	"quasar/internal/sched"
	"quasar/internal/sim"
	"quasar/internal/workload"
)

// Micro-probes time public functions on a traced run's end state, after the
// run's results were captured. They answer "what does one call cost at this
// world's size", which a decorator around a whole callback cannot.

// perCall runs fn n times and returns the mean duration of one call.
func perCall(n int, fn func(i int)) time.Duration {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return time.Since(t0) / time.Duration(n)
}

// probeQueue times schedule+Step of no-op events on a fresh engine
// pre-loaded to the run's peak pending depth: the cost of the event queue
// core alone, the number that decides calendar-vs-heap.
func probeQueue(l map[string]float64, pendingPeak int) {
	eng := sim.NewEngine()
	noop := func() {}
	for i := 0; i < pendingPeak; i++ {
		eng.Schedule(float64(i%600)+0.5, noop)
	}
	const n = 200000
	d := perCall(n, func(int) {
		eng.Schedule(eng.Now()+tickSecs, noop)
		eng.Step()
	})
	l["sim.queue_ns_per_event"] = float64(d.Nanoseconds())
}

// probeWorkloads mints k fresh targeted workloads, cycling the seven types,
// from a universe the run no longer needs.
func probeWorkloads(u *workload.Universe, k int) []*workload.Instance {
	out := make([]*workload.Instance, k)
	for i := range out {
		out[i] = u.New(workload.Spec{Type: workload.Type(i % int(workload.NumTypes)), Family: -1, MaxNodes: 4, TargetSlack: 1.5})
	}
	return out
}

// probeClassifier times classification on the end-state engine and the
// collaborative-filtering kernels at its matrix shape.
func probeClassifier(l map[string]float64, e *classify.Engine, u *workload.Universe, platforms []cluster.Platform) {
	rng := sim.NewRNG(7)
	ws := probeWorkloads(u, 28)
	probers := make([]classify.Prober, len(ws))
	for i, w := range ws {
		probers[i] = classify.NewGroundTruthProber(w, platforms, rng.Stream("probe/"+w.ID))
	}
	e.EnsureTrained()
	obs := make([]*classify.ProbeObs, len(ws))
	d := perCall(len(ws), func(i int) {
		_, obs[i] = e.ClassifyDetached(ws[i], probers[i], rng.Stream("classify/"+ws[i].ID))
	})
	l["classify.classify_ms"] = d.Seconds() * 1e3
	for i, w := range ws {
		e.Append(w.ID, obs[i])
	}
	// Reclassification overwrites a row through the feedback path, which
	// retrains an axis whenever enough entries changed: the mean over many
	// calls is the amortised cost the monitor pays.
	d = perCall(len(ws), func(i int) { e.Reclassify(ws[i], probers[i]) })
	l["classify.reclassify_ms"] = d.Seconds() * 1e3

	rows, cols := e.Rows(), len(e.SUCols)
	dense := cf.NewDense(rows, cols)
	sparse := cf.NewSparse(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			v := sim.HashNormal(int64(i*cols + j))
			dense.Set(i, j, v)
			if i < rows/8 || (i+j)%(cols/3+1) == 0 {
				sparse.Set(i, j, v)
			}
		}
	}
	d = perCall(3, func(int) { cf.ComputeSVD(dense) })
	l["cf.svd_ms"] = d.Seconds() * 1e3
	var model *cf.Model
	d = perCall(3, func(int) { model = cf.Train(sparse, cf.DefaultOptions()) })
	l["cf.train_ms"] = d.Seconds() * 1e3
	fold := map[int]float64{0: 0.1, cols / 2: -0.2, cols - 1: 0.3}
	d = perCall(2000, func(int) { model.FoldIn(fold) })
	l["cf.foldin_us"] = float64(d.Nanoseconds()) / 1e3
}

// probeScheduler times ranking and scheduling of a fixed request set on the
// end-state cluster, and the free index's end-state shape.
func probeScheduler(l map[string]float64, cl *cluster.Cluster, e *classify.Engine, u *workload.Universe) {
	rng := sim.NewRNG(11)
	e.EnsureTrained()
	var reqs []*sched.Request
	for _, w := range probeWorkloads(u, 21) {
		est, _ := e.ClassifyDetached(w, classify.NewGroundTruthProber(w, cl.Platforms, rng.Stream("probe/"+w.ID)), rng.Stream("classify/"+w.ID))
		need, nodes := w.Target.IPS, 1
		switch {
		case w.Target.QPS > 0:
			need, nodes = w.Target.QPS, 4
		case w.Target.CompletionSecs > 0:
			need, nodes = w.Genome.Work/w.Target.CompletionSecs, 4
		}
		reqs = append(reqs, &sched.Request{W: w, Est: est, NeedPerf: need, MaxNodes: nodes,
			EstOf: func(string) *classify.Estimates { return nil }})
	}
	s := sched.New(cl, sched.DefaultOptions())
	const rounds = 5
	d := perCall(rounds*len(reqs), func(i int) { s.RankCandidates(reqs[i%len(reqs)]) })
	l["sched.rank_us"] = float64(d.Nanoseconds()) / 1e3
	d = perCall(rounds*len(reqs), func(i int) { _, _ = s.Schedule(reqs[i%len(reqs)]) }) // no capacity is an answer, not a failure
	l["sched.schedule_us"] = float64(d.Nanoseconds()) / 1e3

	pristine, occupiable := 0, 0
	for p := range cl.Platforms {
		pristine += cl.Idx().NumPristine(p)
		occupiable += cl.Idx().NumOccupiable(p)
	}
	l["cluster.pristine_end"] = float64(pristine)
	l["cluster.occupiable_end"] = float64(occupiable)

	calls := 0
	t0 := time.Now()
	for _, srv := range cl.Servers {
		for _, pl := range srv.Placements() {
			_ = srv.PressureOn(pl.WorkloadID)
			calls++
		}
	}
	if calls > 0 {
		l["cluster.pressure_on_ns"] = float64(time.Since(t0).Nanoseconds()) / float64(calls)
	}
}

// probeWorld runs the classifier and scheduler probes on a reference world.
// The serve_* workloads use it: the daemon's and the replay's worlds are
// private to internal/serve, so their probes run at the same size but on
// the library-only state.
func probeWorld(l map[string]float64, s *experiments.Scenario) {
	probeClassifier(l, s.Q.Engine(), s.U, s.RT.Cl.Platforms)
	probeScheduler(l, s.RT.Cl, s.Q.Engine(), s.U)
}
