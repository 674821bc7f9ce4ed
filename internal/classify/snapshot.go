package classify

import (
	"encoding/json"
	"fmt"
	"math"

	"quasar/internal/cf"
	"quasar/internal/cluster"
	"quasar/internal/perfmodel"
)

// Snapshot support (§4.4): the engine's matrices and row index — the state
// a hot-standby master needs to continue classifying without re-profiling
// the world — serialize to JSON and rebuild on restore.

// EngineSnapshot is the serializable classification state.
type EngineSnapshot struct {
	// Axes holds, per axis, the sparse rows (column -> value).
	Axes [][]map[int]float64 `json:"axes"`
	// RowOf maps workload ID to matrix row.
	RowOf map[string]int `json:"row_of"`
}

// Snapshot exports the engine's matrices.
func (e *Engine) Snapshot() *EngineSnapshot {
	snap := &EngineSnapshot{RowOf: make(map[string]int, len(e.rowOf))}
	for _, a := range e.axes {
		snap.Axes = append(snap.Axes, a.mat.Export())
	}
	for id, row := range e.rowOf {
		snap.RowOf[id] = row
	}
	return snap
}

// MarshalJSON is provided by the struct tags; MarshalSnapshot is a
// convenience wrapper.
func (e *Engine) MarshalSnapshot() ([]byte, error) {
	return json.Marshal(e.Snapshot())
}

// LoadSnapshot replaces the engine's matrices with the snapshot's and
// refits every axis model. Column layouts must match the engine's
// configuration (same platforms and grids). The whole snapshot is validated
// before anything is replaced: on error the engine is as it was.
func (e *Engine) LoadSnapshot(snap *EngineSnapshot) error {
	if err := e.validateSnapshot(snap); err != nil {
		return err
	}
	for i, rows := range snap.Axes {
		a := e.axes[i]
		a.mat = cf.NewSparseFrom(a.mat.Cols, rows)
		a.train()
		a.fit()
	}
	e.rowOf = make(map[string]int, len(snap.RowOf))
	for id, row := range snap.RowOf {
		e.rowOf[id] = row
	}
	return nil
}

// validateSnapshot rejects a snapshot this engine cannot hold: a snapshot
// file is outside input, and a bad one must fail the restore, not panic the
// standby or poison the next fit.
func (e *Engine) validateSnapshot(snap *EngineSnapshot) error {
	if snap == nil {
		return fmt.Errorf("classify: snapshot carries no engine state")
	}
	if len(snap.Axes) != int(numAxes) {
		return fmt.Errorf("classify: snapshot has %d axes, engine %d", len(snap.Axes), int(numAxes))
	}
	rows := len(snap.Axes[0])
	for i, axisRows := range snap.Axes {
		a := e.axes[i]
		if len(axisRows) != rows {
			return fmt.Errorf("classify: snapshot axis %s has %d rows, axis %s has %d",
				a.name, len(axisRows), e.axes[0].name, rows)
		}
		for r, row := range axisRows {
			for col, v := range row {
				if col < 0 || col >= a.mat.Cols {
					return fmt.Errorf("classify: snapshot axis %s row %d: column %d outside [0,%d)", a.name, r, col, a.mat.Cols)
				}
				if math.IsNaN(v) || math.IsInf(v, 0) {
					return fmt.Errorf("classify: snapshot axis %s row %d column %d: non-finite value %v", a.name, r, col, v)
				}
			}
		}
	}
	for id, row := range snap.RowOf {
		if row < 0 || row >= rows {
			return fmt.Errorf("classify: snapshot maps workload %s to row %d, matrices have %d rows", id, row, rows)
		}
	}
	return nil
}

// UnmarshalSnapshot decodes and loads serialized state.
func (e *Engine) UnmarshalSnapshot(data []byte) error {
	var snap EngineSnapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return err
	}
	return e.LoadSnapshot(&snap)
}

// EstimateSnapshot is one workload's serialized classification output.
type EstimateSnapshot struct {
	ID      string         `json:"id"`
	Row     int            `json:"row"`
	Class   int            `json:"class"`
	RefPerf float64        `json:"ref_perf"`
	SULog   []float64      `json:"su_log"`
	SOLog   []float64      `json:"so_log"`
	HetLog  []float64      `json:"het_log"`
	Tol     cluster.ResVec `json:"tol"`
	Caused  cluster.ResVec `json:"caused"`
	Beta    float64        `json:"beta"`
}

// Snapshot exports the estimates.
func (es *Estimates) Snapshot() *EstimateSnapshot {
	return &EstimateSnapshot{
		ID: es.ID, Row: es.Row, Class: int(es.Class), RefPerf: es.RefPerf,
		SULog:  append([]float64(nil), es.SULog...),
		SOLog:  append([]float64(nil), es.SOLog...),
		HetLog: append([]float64(nil), es.HetLog...),
		Tol:    es.Tol, Caused: es.Caused, Beta: es.beta,
	}
}

// RestoreEstimates rebuilds an Estimates bound to the engine from a
// snapshot.
func RestoreEstimates(e *Engine, snap *EstimateSnapshot) (*Estimates, error) {
	if len(snap.SULog) != len(e.SUCols) || len(snap.HetLog) != len(e.Platforms) ||
		len(snap.SOLog) != len(e.SOCounts) {
		return nil, fmt.Errorf("classify: estimate snapshot for %s does not match engine grids", snap.ID)
	}
	return &Estimates{
		Engine: e, ID: snap.ID, Row: snap.Row,
		Class:   perfmodel.Class(snap.Class),
		RefPerf: snap.RefPerf,
		SULog:   append([]float64(nil), snap.SULog...),
		SOLog:   append([]float64(nil), snap.SOLog...),
		HetLog:  append([]float64(nil), snap.HetLog...),
		Tol:     snap.Tol, Caused: snap.Caused,
		beta: snap.Beta,
	}, nil
}
