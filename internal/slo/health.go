package slo

import (
	"quasar/internal/cluster"
	"quasar/internal/obs"
)

// Health-score formula. A server's score starts from 1.0 and loses:
//
//	WeightOverload x how far CPU utilization sits past the UtilKnee
//	                 (running hot is fine; running saturated is risk),
//	WeightPressure x the mean interference pressure across shared
//	                 resources (the Quasar signal that colocated work is
//	                 being hurt),
//	WeightAlerts   x the mass of active SLO alerts on resident workloads
//	                 (a page weighs AlertMassPage, a ticket
//	                 AlertMassTicket, clamped to 1).
//
// The failure detector's belief then caps the result: a suspect server
// scores at most SuspectCap, and a server believed dead (or physically
// down) scores 0. The blend is intentionally operator-shaped: it only uses
// signals a real control plane would have.
const (
	UtilKnee       = 0.8
	WeightOverload = 0.2
	WeightPressure = 0.3
	WeightAlerts   = 0.5
	SuspectCap     = 0.3
	AlertMassPage  = 1.0
	AlertMassTick  = 0.25
)

// alertMass returns the active-alert weight of one workload.
func (e *Engine) alertMass(workloadID string) float64 {
	ws := e.states[workloadID]
	if ws == nil {
		return 0
	}
	m := 0.0
	for ri := range ws.rules {
		if !ws.rules[ri].active {
			continue
		}
		if burnRules[ri].Name == "page" {
			m += AlertMassPage
		} else {
			m += AlertMassTick
		}
	}
	return m
}

// serverScore computes one server's health score in [0,1].
func (e *Engine) serverScore(s *cluster.Server) float64 {
	if !s.Up() || s.Det() == cluster.DetDead {
		return 0
	}
	over := 0.0
	if u := s.CPUUtilization(); u > UtilKnee {
		over = (u - UtilKnee) / (1 - UtilKnee)
	}
	pressure := 0.0
	p := s.PressureOn("")
	for r := 0; r < int(cluster.NumResources); r++ {
		pressure += clamp01(p[r])
	}
	pressure /= float64(cluster.NumResources)
	mass := 0.0
	for _, pl := range s.Placements() {
		mass += e.alertMass(pl.WorkloadID)
	}
	mass = clamp01(mass)
	score := clamp01(1 - WeightOverload*over - WeightPressure*pressure - WeightAlerts*mass)
	if s.Det() == cluster.DetSuspect && score > SuspectCap {
		score = SuspectCap
	}
	return score
}

// healthSweep scores every server and the cluster at one sweep instant.
// It runs sequentially on the sim goroutine: the per-server loop is cheap
// and its order (the cluster's server slice) is part of the trace contract.
func (e *Engine) healthSweep(now float64) {
	n := len(e.rt.Cl.Servers)
	if cap(e.scoreBuf) < n {
		e.scoreBuf = make([]float64, n) // Heatmap.Sample copies, so sweeps reuse it
	}
	scores := e.scoreBuf[:n]
	sum := 0.0
	for i, s := range e.rt.Cl.Servers {
		scores[i] = e.serverScore(s)
		sum += scores[i]
	}
	e.HealthHeat.Sample(now, scores)
	mean := 0.0
	if len(scores) > 0 {
		mean = sum / float64(len(scores))
	}
	e.ClusterHealth.Add(now, mean)
	if e.tr.Enabled() {
		e.tr.Counter("cluster", "slo", "health",
			obs.Arg{Key: "score", Val: mean},
			obs.Arg{Key: "alerts_active", Val: e.ActiveAlerts()})
	}
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}
