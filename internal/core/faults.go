package core

import (
	"quasar/internal/cluster"
	"quasar/internal/obs"
)

// This file is the runtime half of the fault story: the physical fault
// surface driven by internal/chaos (Runtime implements chaos.World), and
// the heartbeat failure detector that turns physical faults into manager
// knowledge. The split is deliberate: a crash is instantaneous ground
// truth, but the manager only learns of it k missed heartbeats later, and
// everything it does in between runs on stale belief.

// DetectorOptions configures the heartbeat failure detector.
type DetectorOptions struct {
	// PeriodSecs is the heartbeat interval (default 10s).
	PeriodSecs float64
	// SuspectMissed is how many consecutive missed beats mark a server
	// suspect — no new placements (default 2).
	SuspectMissed int
	// DeadMissed is how many consecutive missed beats declare a server dead,
	// fencing and displacing its residents (default 4).
	DeadMissed int
}

// DefaultDetectorOptions returns the standard 10s/2/4 detector: suspect
// after 20s of silence, dead after 40s.
func DefaultDetectorOptions() DetectorOptions {
	return DetectorOptions{PeriodSecs: 10, SuspectMissed: 2, DeadMissed: 4}
}

// FailureAware is an optional Manager extension. A manager that implements
// it takes over recovery of displaced work; the runtime falls back to the
// plain OnEvicted re-queue path for managers that do not.
type FailureAware interface {
	// OnServerDead is called when the detector declares a server dead, after
	// its residents were fenced. displaced holds the affected tasks in
	// workload-ID order; tasks that lost every node are StatusQueued.
	OnServerDead(s *cluster.Server, displaced []*Task)
	// OnServerRestored is called when a previously-dead server heartbeats
	// again (restart or healed partition).
	OnServerRestored(s *cluster.Server)
}

// EnableFailureDetector starts (or restarts) the heartbeat detector. It is
// opt-in: a runtime without it behaves exactly as before this subsystem
// existed, and traces of healthy runs stay byte-identical.
func (rt *Runtime) EnableFailureDetector(opts DetectorOptions) {
	if opts.PeriodSecs <= 0 {
		opts.PeriodSecs = 10
	}
	if opts.SuspectMissed <= 0 {
		opts.SuspectMissed = 2
	}
	if opts.DeadMissed <= opts.SuspectMissed {
		opts.DeadMissed = opts.SuspectMissed + 2
	}
	if rt.stopHB != nil {
		rt.stopHB()
	}
	rt.detOpts = &opts
	rt.missed = make([]int, len(rt.Cl.Servers))
	rt.startHeartbeat()
}

// DetectorEnabled reports whether the heartbeat detector is running.
func (rt *Runtime) DetectorEnabled() bool { return rt.detOpts != nil }

func (rt *Runtime) startHeartbeat() {
	p := rt.detOpts.PeriodSecs
	rt.stopHB = rt.Eng.Ticker(rt.Eng.Now()+p, p, rt.heartbeat)
}

// heartbeat is one detector sweep: reachable servers clear their miss
// counters; silent ones accumulate toward suspect and dead.
func (rt *Runtime) heartbeat(now float64) {
	for i, s := range rt.Cl.Servers {
		if s.Reachable() {
			if rt.missed[i] == 0 && s.Det() == cluster.DetOK {
				continue
			}
			prev := s.Det()
			rt.missed[i] = 0
			s.SetDet(cluster.DetOK)
			switch prev {
			case cluster.DetDead:
				if rt.Trace.Enabled() {
					rt.Trace.Instant(serverTrack(s.ID), "detect", "hb-restored")
					rt.Trace.Registry().Counter("servers_restored_total", "dead servers heard from again").Inc()
				}
				if fa, ok := rt.manager.(FailureAware); ok {
					fa.OnServerRestored(s)
				}
			case cluster.DetSuspect:
				if rt.Trace.Enabled() {
					rt.Trace.Instant(serverTrack(s.ID), "detect", "hb-cleared")
				}
			}
			continue
		}
		rt.missed[i]++
		switch {
		case rt.missed[i] >= rt.detOpts.DeadMissed && s.Det() != cluster.DetDead:
			s.SetDet(cluster.DetDead)
			displaced := rt.fence(s, "server-dead")
			if rt.Trace.Enabled() {
				rt.Trace.Instant(serverTrack(s.ID), "detect", "hb-dead",
					obs.Arg{Key: "missed", Val: rt.missed[i]},
					obs.Arg{Key: "displaced", Val: len(displaced)})
				rt.Trace.Registry().Counter("servers_declared_dead_total", "servers declared dead by the detector").Inc()
			}
			rt.notifyDisplaced(s, displaced)
		case rt.missed[i] >= rt.detOpts.SuspectMissed && s.Det() == cluster.DetOK:
			s.SetDet(cluster.DetSuspect)
			if rt.Trace.Enabled() {
				rt.Trace.Instant(serverTrack(s.ID), "detect", "hb-suspect",
					obs.Arg{Key: "missed", Val: rt.missed[i]})
			}
		}
	}
}

// fence removes every placement from a server the detector gave up on (or
// that restarted), in workload-ID order. For a partitioned-but-alive server
// this is the kill signal that makes displacement safe: the infrastructure
// guarantees the old instance is gone before a replacement starts. Tasks
// that lost their last node drop back to StatusQueued.
func (rt *Runtime) fence(s *cluster.Server, reason string) []*Task {
	// A copy: every removal below shifts the server's live resident list.
	pls := append([]*cluster.Placement(nil), s.Placements()...)
	displaced := make([]*Task, 0, len(pls))
	for _, pl := range pls {
		t := rt.tasks[pl.WorkloadID]
		if t == nil {
			_ = s.Remove(pl.WorkloadID)
			continue
		}
		_ = rt.RemoveNode(t, s.ID)
		if t.NumNodes() == 0 && t.Status == StatusRunning {
			t.Status = StatusQueued
		}
		displaced = append(displaced, t)
		if rt.Trace.Enabled() {
			rt.Trace.Instant(workloadTrack(t.W.ID), "detect", "displaced",
				obs.Arg{Key: "server", Val: s.ID},
				obs.Arg{Key: "reason", Val: reason},
				obs.Arg{Key: "remaining_nodes", Val: t.NumNodes()})
			rt.Trace.Registry().Counter("displacements_total", "workload displacements off failed servers").Inc()
		}
	}
	return displaced
}

// notifyDisplaced routes displaced tasks to the manager: FailureAware
// managers run their recovery policy; others get the OnEvicted re-queue
// path for tasks that lost everything.
func (rt *Runtime) notifyDisplaced(s *cluster.Server, displaced []*Task) {
	if rt.manager == nil {
		return
	}
	if fa, ok := rt.manager.(FailureAware); ok {
		fa.OnServerDead(s, displaced)
		return
	}
	for _, t := range displaced {
		if t.W.BestEffort || t.NumNodes() == 0 {
			rt.manager.OnEvicted(t)
		}
	}
}

// --- chaos.World implementation ------------------------------------------
//
// These are the physical fault primitives internal/chaos drives. Each
// returns whether it applied; injections against a target already in the
// requested state no-op.

// NumServers returns the cluster size (chaos.World).
func (rt *Runtime) NumServers() int { return len(rt.Cl.Servers) }

func (rt *Runtime) emitFault(serverID int, name string, args ...obs.Arg) {
	if !rt.Trace.Enabled() {
		return
	}
	rt.Trace.Instant(serverTrack(serverID), "chaos", name, args...)
	rt.Trace.Registry().Counter("faults_injected_total", "fault injections applied").Inc()
}

// CrashServer takes a server down (chaos.World). Resident placements stay
// on the books — the manager has not learned of the crash yet — but the
// server contributes no work: nodesOf skips down servers, so batch rates
// and service capacity on it drop to zero immediately.
func (rt *Runtime) CrashServer(id int) bool {
	s := rt.Cl.Servers[id]
	if !s.Up() {
		return false
	}
	s.SetDown()
	rt.emitFault(id, "fault-crash")
	return true
}

// RestartServer brings a crashed server back (chaos.World). If the outage
// was shorter than the detection window, residents stalled and now resume:
// a transient blip the manager never saw. If the detector declared the
// server dead, it was fenced and rejoins empty; any placement that somehow
// survived is drained here so a restarted server never carries stale state.
func (rt *Runtime) RestartServer(id int) bool {
	s := rt.Cl.Servers[id]
	if s.Up() {
		return false
	}
	s.SetUp()
	if s.Det() == cluster.DetDead && s.NumPlacements() > 0 {
		displaced := rt.fence(s, "restart-drain")
		rt.notifyDisplaced(s, displaced)
	}
	rt.emitFault(id, "fault-restart")
	return true
}

// SlowServer degrades a server's effective IPC (chaos.World): severity
// scales an extra interference vector that PressureOn folds into what every
// resident and the scheduler's quality estimates see. Heavy on the
// compute-bound resources, lighter on storage and network — the profile of
// thermal throttling or a noisy co-tenant below the virtualization line.
func (rt *Runtime) SlowServer(id int, severity float64) bool {
	s := rt.Cl.Servers[id]
	if !s.Up() || s.Degraded() {
		return false
	}
	var v cluster.ResVec
	for r := 0; r < int(cluster.NumResources); r++ {
		v[r] = severity * 0.5
	}
	v[cluster.ResCPU] = severity
	v[cluster.ResLLC] = severity
	v[cluster.ResMemBW] = severity
	s.SetDegrade(v)
	rt.emitFault(id, "fault-slowdown", obs.Arg{Key: "severity", Val: severity})
	return true
}

// UnslowServer ends a slowdown (chaos.World).
func (rt *Runtime) UnslowServer(id int) bool {
	s := rt.Cl.Servers[id]
	if !s.Degraded() {
		return false
	}
	s.SetDegrade(cluster.ResVec{})
	if rt.Trace.Enabled() {
		rt.Trace.Instant(serverTrack(id), "chaos", "fault-slowdown-end")
	}
	return true
}

// PartitionServer cuts heartbeats from a server (chaos.World). Resident
// work keeps running — the machine is fine, the network is not — until the
// detector declares it dead and fences it.
func (rt *Runtime) PartitionServer(id int) bool {
	s := rt.Cl.Servers[id]
	if !s.Up() || s.Partitioned() {
		return false
	}
	s.SetPartitioned(true)
	rt.emitFault(id, "fault-partition")
	return true
}

// HealServer restores heartbeats (chaos.World).
func (rt *Runtime) HealServer(id int) bool {
	s := rt.Cl.Servers[id]
	if !s.Partitioned() {
		return false
	}
	s.SetPartitioned(false)
	if rt.Trace.Enabled() {
		rt.Trace.Instant(serverTrack(id), "chaos", "fault-heal")
	}
	return true
}
