package classify

import (
	"quasar/internal/cf"
	"quasar/internal/cluster"
	"quasar/internal/sim"
	"quasar/internal/workload"
)

// JointProber measures performance for full allocation-assignment vectors,
// as the exhaustive classification requires.
type JointProber interface {
	// JointPerf measures performance on n nodes of the given platform with
	// the given per-node allocation.
	JointPerf(platformIdx, n int, alloc cluster.Alloc) float64
}

// JointPerf implements JointProber for the ground-truth prober.
func (p *GroundTruthProber) JointPerf(platformIdx, n int, alloc cluster.Alloc) float64 {
	return p.noise(p.perfAt(platformIdx, n, alloc, cluster.ResVec{}))
}

// Exhaustive is the single joint classification the paper compares against
// (§3.2, Table 2): one matrix whose columns are allocation-assignment
// vectors. Its column count is the product of the individual spaces, which
// makes per-arrival classification roughly two orders of magnitude slower
// and — at very low input density — less accurate on average, though better
// on pathological cross-axis cases.
type Exhaustive struct {
	Platforms []cluster.Platform
	Cols      []JointCol

	mat     *cf.Sparse
	model   *cf.Model
	cfOpts  cf.Options
	retrain int
	since   int
	rowOf   map[string]int
	rng     *sim.RNG
}

// NewExhaustive builds the joint classifier.
func NewExhaustive(platforms []cluster.Platform, maxNodes int, cfOpts cf.Options, rng *sim.RNG) *Exhaustive {
	cols := JointColumns(platforms, maxNodes)
	return &Exhaustive{
		Platforms: platforms,
		Cols:      cols,
		mat:       cf.NewSparse(0, len(cols)),
		cfOpts:    cfOpts,
		retrain:   25,
		rowOf:     make(map[string]int),
		rng:       rng,
	}
}

// NumColumns returns the size of the joint column space.
func (x *Exhaustive) NumColumns() int { return len(x.Cols) }

// Seed adds a densely profiled library workload without training: a library
// is characterised offline, before any arrival needs a model, so it is
// fitted once — by Retrain, or by the first Classify/EnsureTrained — and not
// every few rows on the way in.
func (x *Exhaustive) Seed(w *workload.Instance, p JointProber) {
	obs := make(map[int]float64, len(x.Cols))
	for j, col := range x.Cols {
		if col.Nodes > 1 && !w.Type.Distributed() {
			continue
		}
		obs[j] = safeLog(p.JointPerf(col.PlatformIdx, col.Nodes, col.Alloc(x.Platforms)))
	}
	x.rowOf[w.ID] = x.mat.AppendRow(obs)
}

func (x *Exhaustive) append(id string, obs map[int]float64) int {
	row := x.mat.AppendRow(obs)
	x.rowOf[id] = row
	x.since++
	if x.model == nil || x.since >= x.retrain {
		x.model = cf.Train(x.mat, x.cfOpts)
		x.since = 0
	}
	return row
}

// Retrain refits the joint model from scratch (the per-arrival cost of the
// exhaustive design).
func (x *Exhaustive) Retrain() {
	x.model = cf.Train(x.mat, x.cfOpts)
	x.since = 0
}

// Classify profiles the workload at entries random joint columns and
// reconstructs the full row (log performance per column).
func (x *Exhaustive) Classify(w *workload.Instance, p JointProber, entries int) []float64 {
	obs := x.probe(w, p, entries, x.rng.Stream("exhaustive/"+w.ID))
	x.append(w.ID, obs)
	return x.foldIn(obs)
}

// EnsureTrained trains the joint model if rows exist but no model does, so a
// detached batch folds in against a frozen model instead of racing to train.
func (x *Exhaustive) EnsureTrained() {
	if x.model == nil && x.mat.Rows > 0 {
		x.model = cf.Train(x.mat, x.cfOpts)
		x.since = 0
	}
}

// ClassifyDetached probes and reconstructs without touching classifier
// state: the caller supplies the per-workload RNG (derived in input order
// before the fan-out) and later hands the returned observations to Append
// sequentially. Call EnsureTrained before fanning out.
func (x *Exhaustive) ClassifyDetached(w *workload.Instance, p JointProber, entries int, rng *sim.RNG) ([]float64, map[int]float64) {
	obs := x.probe(w, p, entries, rng)
	return x.foldIn(obs), obs
}

// Append adds a detached arrival's observations to the matrix; sequential,
// input order, after the fan-out.
func (x *Exhaustive) Append(id string, obs map[int]float64) {
	x.append(id, obs)
}

// probe samples entries random valid joint columns. Read-only on the
// classifier; workload mutation is confined to the prober.
func (x *Exhaustive) probe(w *workload.Instance, p JointProber, entries int, rng *sim.RNG) map[int]float64 {
	valid := make([]int, 0, len(x.Cols))
	for j, col := range x.Cols {
		if col.Nodes > 1 && !w.Type.Distributed() {
			continue
		}
		valid = append(valid, j)
	}
	obs := make(map[int]float64, entries)
	for _, vi := range pickDistinct(rng, len(valid), entries) {
		j := valid[vi]
		col := x.Cols[j]
		obs[j] = safeLog(p.JointPerf(col.PlatformIdx, col.Nodes, col.Alloc(x.Platforms)))
	}
	return obs
}

// foldIn reconstructs the full row from sparse observations against the
// current model (read-only; obs as the row when no model exists yet).
func (x *Exhaustive) foldIn(obs map[int]float64) []float64 {
	if x.model == nil {
		row := make([]float64, len(x.Cols))
		for j, v := range obs {
			row[j] = v
		}
		return row
	}
	row := x.model.FoldIn(obs)
	for j, v := range obs {
		row[j] = v
	}
	return row
}
