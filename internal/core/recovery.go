package core

import (
	"sort"

	"quasar/internal/cluster"
	"quasar/internal/obs"
	"quasar/internal/perfmodel"
)

// This file is Quasar's recovery policy: what the manager does when the
// failure detector hands it a dead server. The defining property is that
// re-admission is classification-aware but profiling-free — the cached
// classification signature (taskState.est) from the original admission is
// reused, so a displaced workload goes straight back through the joint
// allocation/assignment scheduler without a sandbox re-profiling round.

// RecoveryStats aggregates what the recovery policy did. All fields are
// exported and JSON-round-trippable so they survive manager snapshots.
type RecoveryStats struct {
	// Displaced counts workloads that lost at least one node to a dead
	// server (LC = the latency-critical subset).
	Displaced   int `json:"displaced"`
	DisplacedLC int `json:"displaced_lc"`
	// NodesLost counts individual placements removed by fencing.
	NodesLost int `json:"nodes_lost"`
	// Readmitted counts displaced workloads whose capacity was restored;
	// the NoReprofile variants never re-profiled between displacement and
	// recovery (signature reuse — the ≥90% acceptance criterion).
	Readmitted              int `json:"readmitted"`
	ReadmittedLC            int `json:"readmitted_lc"`
	ReadmittedNoReprofile   int `json:"readmitted_no_reprofile"`
	ReadmittedLCNoReprofile int `json:"readmitted_lc_no_reprofile"`
	// DegradedAdmissions counts re-admissions that took a partial
	// allocation because the surviving cluster could not meet the full
	// target (capacity-aware degraded admission control).
	DegradedAdmissions int `json:"degraded_admissions"`
	// ReadmitDelays holds displacement→recovery delays in seconds, in
	// recovery order.
	ReadmitDelays []float64 `json:"readmit_delays"`
}

// MTTR returns the mean displacement→recovery delay in seconds.
func (rs *RecoveryStats) MTTR() float64 {
	if len(rs.ReadmitDelays) == 0 {
		return 0
	}
	sum := 0.0
	for _, d := range rs.ReadmitDelays {
		sum += d
	}
	return sum / float64(len(rs.ReadmitDelays))
}

// HalfLife returns the median displacement→recovery delay: the time by
// which half the displaced work was back.
func (rs *RecoveryStats) HalfLife() float64 {
	n := len(rs.ReadmitDelays)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), rs.ReadmitDelays...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Recovery returns a copy of the recovery statistics.
func (q *Quasar) Recovery() RecoveryStats {
	rs := q.recovery
	rs.ReadmitDelays = append([]float64(nil), q.recovery.ReadmitDelays...)
	return rs
}

func isLC(t *Task) bool { return t.W.Type.Class() == perfmodel.LatencyCritical }

// OnServerDead implements FailureAware: run the recovery policy over the
// fenced residents of a dead server. Latency-critical workloads recover
// first; within a class, workload-ID order (the runtime's fencing order)
// keeps the pass deterministic.
func (q *Quasar) OnServerDead(s *cluster.Server, displaced []*Task) {
	now := q.rt.Eng.Now()
	ordered := append([]*Task(nil), displaced...)
	sort.SliceStable(ordered, func(i, j int) bool {
		return isLC(ordered[i]) && !isLC(ordered[j])
	})
	for _, t := range ordered {
		if !t.W.Tier().Targeted() {
			// Fillers have no targets to restore; back to the queue.
			if t.NumNodes() == 0 {
				q.queue.Push(t)
			}
			continue
		}
		st, ok := q.state[t.W.ID]
		if !ok {
			continue
		}
		q.recovery.NodesLost++
		if !st.displaced {
			st.displaced = true
			st.displacedAt = now
			st.reprofiled = false
			q.recovery.Displaced++
			if isLC(t) {
				q.recovery.DisplacedLC++
			}
		}
		if t.NumNodes() == 0 {
			q.readmit(t, st)
		}
		// Partially displaced workloads keep running on their surviving
		// nodes; monitor() sees the shortfall, scale-out restores capacity,
		// and finishReadmit fires once measured performance recovers.
	}
}

// OnServerRestored implements FailureAware: returned capacity may unblock
// queued (possibly displaced) work immediately.
func (q *Quasar) OnServerRestored(s *cluster.Server) {
	q.drainQueue()
}

// readmit pushes a fully-displaced workload back through the scheduler
// using its cached classification signature — no re-profiling. If the
// surviving cluster cannot meet the full performance target, degraded
// admission takes a partial allocation instead of queueing behind an
// impossible requirement.
func (q *Quasar) readmit(t *Task, st *taskState) {
	if q.tryPlaceOpt(t, st, false) {
		q.finishReadmit(t, st, "readmit")
		return
	}
	if q.tryPlaceOpt(t, st, true) {
		q.recovery.DegradedAdmissions++
		q.finishReadmit(t, st, "readmit-degraded")
		return
	}
	t.Status = StatusQueued
	q.queue.Push(t)
	if q.tracer.Enabled() {
		q.tracer.Instant(workloadTrack(t.W.ID), "recover", "readmit-defer",
			obs.Arg{Key: "live_free_cores", Val: q.rt.Cl.LiveFreeCores()},
			obs.Arg{Key: "live_servers", Val: q.rt.Cl.NumLive()})
	}
}

// finishReadmit closes a displacement episode: the workload is placed (or
// its surviving allocation meets the target again). Records MTTR and
// whether the cached signature survived unre-profiled.
func (q *Quasar) finishReadmit(t *Task, st *taskState, how string) {
	if !st.displaced {
		return
	}
	delay := q.rt.Eng.Now() - st.displacedAt
	st.displaced = false
	noReprofile := !st.reprofiled
	q.recovery.Readmitted++
	q.recovery.ReadmitDelays = append(q.recovery.ReadmitDelays, delay)
	if noReprofile {
		q.recovery.ReadmittedNoReprofile++
	}
	if isLC(t) {
		q.recovery.ReadmittedLC++
		if noReprofile {
			q.recovery.ReadmittedLCNoReprofile++
		}
	}
	if q.tracer.Enabled() {
		q.tracer.Instant(workloadTrack(t.W.ID), "recover", "re-admit",
			obs.Arg{Key: "how", Val: how},
			obs.Arg{Key: "delay_secs", Val: delay},
			obs.Arg{Key: "reused_signature", Val: noReprofile},
			obs.Arg{Key: "nodes", Val: t.NumNodes()})
		q.tracer.Registry().Counter("readmissions_total", "displaced workloads re-admitted").Inc()
		if noReprofile {
			q.tracer.Registry().Counter("readmissions_without_reprofile_total",
				"re-admissions that reused the cached classification signature").Inc()
		}
	}
}
