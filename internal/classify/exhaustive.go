package classify

import (
	"quasar/internal/cf"
	"quasar/internal/cluster"
	"quasar/internal/sim"
	"quasar/internal/workload"
)

// JointPerf measures performance on n nodes of the given platform with the
// given per-node allocation: one allocation-assignment vector, as the
// exhaustive classification requires.
func (p *GroundTruthProber) JointPerf(platformIdx, n int, alloc cluster.Alloc) float64 {
	return p.noise(p.perfAt(platformIdx, n, alloc, cluster.ResVec{}))
}

// Exhaustive is the single joint classification the paper compares against
// (§3.2, Table 2): one matrix whose columns are allocation-assignment
// vectors. Its column count is the product of the individual spaces, which
// makes per-arrival classification roughly two orders of magnitude slower
// and — at very low input density — less accurate on average, though better
// on pathological cross-axis cases. It learns as each of the engine's
// classifications does: one axis, with the axis's retrain rule.
type Exhaustive struct {
	Platforms []cluster.Platform
	Cols      []JointCol

	ax  *axis
	rng *sim.RNG
}

// NewExhaustive builds the joint classifier.
func NewExhaustive(platforms []cluster.Platform, maxNodes int, cfOpts cf.Options, rng *sim.RNG) *Exhaustive {
	cols := JointColumns(platforms, maxNodes)
	return &Exhaustive{
		Platforms: platforms,
		Cols:      cols,
		ax:        newAxis("exhaustive", len(cols), cfOpts, 25),
		rng:       rng,
	}
}

// NumColumns returns the size of the joint column space.
func (x *Exhaustive) NumColumns() int { return len(x.Cols) }

// SeedMany adds densely profiled library workloads, ws[i] probed by
// probers[i] in input order, and then fits the model once, cold, on every
// row: a library is characterised offline, before any arrival needs a
// model, so it is not fitted every few rows on the way in.
func (x *Exhaustive) SeedMany(ws []*workload.Instance, probers []*GroundTruthProber) {
	if len(ws) == 0 {
		return
	}
	for i, w := range ws {
		obs := make(map[int]float64, len(x.Cols))
		for _, j := range x.validCols(w) {
			col := x.Cols[j]
			obs[j] = safeLog(probers[i].JointPerf(col.PlatformIdx, col.Nodes, col.Alloc(x.Platforms)))
		}
		x.ax.mat.AppendRow(obs)
	}
	x.ax.train(nil)
}

// Retrain refits the joint model from scratch (the per-arrival cost of the
// exhaustive design).
func (x *Exhaustive) Retrain() { x.ax.train(nil) }

// Classify profiles the workload at entries random joint columns, appends
// the observations as a batch of one and reconstructs the full row (log
// performance per column).
func (x *Exhaustive) Classify(w *workload.Instance, p *GroundTruthProber, entries int) []float64 {
	obs := x.probe(w, p, entries, x.rng.Stream("exhaustive/"+w.ID))
	x.appendBatch([]map[int]float64{obs})
	return x.ax.estimateRow(-1, obs)
}

// appendBatch appends rows in input order. As in Engine.appendBatch, every
// retrain point freezes as it comes, and only the last is fitted, after the
// last row.
func (x *Exhaustive) appendBatch(rows []map[int]float64) {
	for _, obs := range rows {
		x.ax.appendUnfitted(obs)
	}
	if x.ax.unfitted {
		x.ax.fit(nil)
	}
}

// validCols returns the joint columns w can run on: multi-node columns only
// for distributed workloads.
func (x *Exhaustive) validCols(w *workload.Instance) []int {
	valid := make([]int, 0, len(x.Cols))
	for j, col := range x.Cols {
		if col.Nodes > 1 && !w.Type.Distributed() {
			continue
		}
		valid = append(valid, j)
	}
	return valid
}

// probe samples entries random valid joint columns. Read-only on the
// classifier; workload mutation is confined to the prober.
func (x *Exhaustive) probe(w *workload.Instance, p *GroundTruthProber, entries int, rng *sim.RNG) map[int]float64 {
	valid := x.validCols(w)
	obs := make(map[int]float64, entries)
	for _, vi := range pickDistinct(rng, len(valid), entries) {
		j := valid[vi]
		col := x.Cols[j]
		obs[j] = safeLog(p.JointPerf(col.PlatformIdx, col.Nodes, col.Alloc(x.Platforms)))
	}
	return obs
}
