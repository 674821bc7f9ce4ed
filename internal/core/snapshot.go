package core

import (
	"encoding/json"
	"fmt"

	"quasar/internal/classify"
)

// Fault tolerance (§4.4): the Quasar master's state — active workloads,
// their targets and deadlines, classification matrices and per-workload
// estimates — is continuously replicable to a hot-standby master. Snapshot
// serializes that state; Restore loads it into a fresh Quasar attached to
// the same (or a mirrored) runtime. Placements live in the cluster itself
// and survive a master failover, exactly as real workloads keep running
// while the manager restarts.

// quasarTaskSnapshot is one workload's manager-side state. The displacement
// fields carry an in-flight failure-recovery episode across a failover: the
// standby must keep attributing the episode's MTTR and signature-reuse
// bookkeeping, not restart it.
type quasarTaskSnapshot struct {
	ID          string                     `json:"id"`
	WorkEst     float64                    `json:"work_est"`
	Deadline    float64                    `json:"deadline"`
	Est         *classify.EstimateSnapshot `json:"est"`
	Displaced   bool                       `json:"displaced,omitempty"`
	DisplacedAt float64                    `json:"displaced_at,omitempty"`
	Reprofiled  bool                       `json:"reprofiled,omitempty"`
}

// QuasarSnapshot is the serializable manager state.
type QuasarSnapshot struct {
	Engine   *classify.EngineSnapshot `json:"engine"`
	Tasks    []quasarTaskSnapshot     `json:"tasks"`
	Queue    []string                 `json:"queue"`
	Recovery RecoveryStats            `json:"recovery"`
}

// Snapshot captures the manager's state. It is safe to call between ticks.
func (q *Quasar) Snapshot() *QuasarSnapshot {
	snap := &QuasarSnapshot{Engine: q.engine.Snapshot()}
	for _, t := range q.rt.Tasks() {
		st, ok := q.state[t.W.ID]
		if !ok {
			continue
		}
		ts := quasarTaskSnapshot{
			ID: t.W.ID, WorkEst: st.workEst, Deadline: st.deadline,
			Displaced: st.displaced, DisplacedAt: st.displacedAt, Reprofiled: st.reprofiled,
		}
		if st.est != nil {
			ts.Est = st.est.Snapshot()
		}
		snap.Tasks = append(snap.Tasks, ts)
	}
	for _, t := range q.queue.Tasks() {
		snap.Queue = append(snap.Queue, t.W.ID)
	}
	snap.Recovery = q.Recovery()
	return snap
}

// MarshalSnapshot serializes the state to JSON.
func (q *Quasar) MarshalSnapshot() ([]byte, error) { return json.Marshal(q.Snapshot()) }

// Restore loads a snapshot into this manager. The manager must be attached
// to the runtime whose tasks the snapshot references (the standby mirrors
// the same cluster).
func (q *Quasar) Restore(snap *QuasarSnapshot) error {
	if err := q.engine.LoadSnapshot(snap.Engine); err != nil {
		return err
	}
	q.state = make(map[string]*taskState, len(snap.Tasks))
	for _, ts := range snap.Tasks {
		if q.rt.Task(ts.ID) == nil {
			return fmt.Errorf("core: snapshot references unknown task %s", ts.ID)
		}
		st := &taskState{
			workEst: ts.WorkEst, deadline: ts.Deadline,
			displaced: ts.Displaced, displacedAt: ts.DisplacedAt, reprofiled: ts.Reprofiled,
		}
		if ts.Est != nil {
			est, err := classify.RestoreEstimates(q.engine, ts.Est)
			if err != nil {
				return err
			}
			st.est = est
		}
		q.state[ts.ID] = st
	}
	q.queue = WaitQueue{}
	for _, id := range snap.Queue {
		if t := q.rt.Task(id); t != nil {
			q.queue.Push(t)
		}
	}
	q.recovery = snap.Recovery
	q.recovery.ReadmitDelays = append([]float64(nil), snap.Recovery.ReadmitDelays...)
	return nil
}

// UnmarshalSnapshot decodes and restores serialized state.
func (q *Quasar) UnmarshalSnapshot(data []byte) error {
	var snap QuasarSnapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return err
	}
	return q.Restore(&snap)
}
