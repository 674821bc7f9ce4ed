package cf

import (
	"math"

	"quasar/internal/sim"
)

// PQ-reconstruction follows the paper: a simple latent-factor model
// r̂_ui = µ + b_u + b_i + q_i·p_u trained by SGD with learning rate η and
// regularization λ, initialized from the SVD of the mean-imputed matrix
// (Pᵀ ← ΣVᵀ, Q ← U), iterating until the L2 norm of the prediction error
// becomes marginal.
const (
	latentK     = 4    // number of latent factors, clamped to the matrix shape
	eta         = 0.05 // SGD learning rate η
	lambda      = 0.02 // regularization factor λ, also fold-in's ridge term
	stopTol     = 1e-6 // stop when the relative RMSE improvement falls below this
	shuffleSeed = 1    // RNG seed for the per-epoch entry-order shuffle
)

// Options configures PQ-reconstruction.
type Options struct {
	Epochs int // maximum SGD epochs
}

// DefaultOptions returns the options used by the classification engine.
func DefaultOptions() Options { return Options{Epochs: 500} }

// Model is a trained latent-factor model over a sparse matrix.
type Model struct {
	K  int
	Mu float64
	BU []float64 // row (user) biases
	BI []float64 // column (item) biases
	P  *Dense    // row factors, Rows×K
	Q  *Dense    // column factors, Cols×K

	// Epochs is how many SGD epochs the fit ran. Rose says the fit stopped
	// because an epoch's RMSE rose, not because it improved by less than
	// stopTol or reached the epoch cap.
	Epochs int
	Rose   bool
}

// Train fits a latent-factor model to the observed entries of s.
func Train(s *Sparse, opts Options) *Model { return TrainFrozen(s.Freeze(nil), opts) }

// TrainFrozen fits a latent-factor model to a frozen matrix. The model is a
// pure function of (the frozen cells, rows, cols, opts): the shuffle re-seeds
// from shuffleSeed on every call, so fitting a capture later gives exactly the
// model fitting it on the spot would have. It consumes f — SGD shuffles the
// cell list in place — so Freeze into f again before training from it again.
func TrainFrozen(f *Frozen, opts Options) *Model {
	k := max(1, min(latentK, f.Rows, f.Cols))
	m := &Model{
		K:  k,
		Mu: meanOf(f.cells),
		BU: make([]float64, f.Rows),
		BI: make([]float64, f.Cols),
		P:  NewDense(f.Rows, k),
		Q:  NewDense(f.Cols, k),
	}
	m.initFromSVD(f.cells)
	m.sgd(f.cells, opts)
	return m
}

// sgd refines the model over the observed entries, reshuffled (in place)
// every epoch starting from their (row, column) order, until the RMSE
// improvement becomes marginal. The classifier's innermost loop: nnz × epochs
// steps per retrain, over the factor matrices as flat slices. A fit with
// K = 4 takes sgd4; a matrix too small for four factors (fewer than four
// rows or columns, as at an axis's first fits) clamps K and takes the
// general loop, which does the same arithmetic in the same order.
func (m *Model) sgd(cells []Cell, opts Options) {
	if len(cells) == 0 {
		return
	}
	if m.K == 4 {
		m.sgd4(cells, opts)
		return
	}
	rng := sim.NewSource(shuffleSeed)
	k, p, q, bu, bi, mu := m.K, m.P.Data, m.Q.Data, m.BU, m.BI, m.Mu
	prevRMSE := math.Inf(1)
	for epoch := 0; epoch < opts.Epochs; epoch++ {
		sim.Shuffle(rng, cells)
		sse := 0.0
		for _, e := range cells {
			pu := p[int(e.Row)*k : int(e.Row)*k+k]
			qi := q[int(e.Col)*k : int(e.Col)*k+k]
			qi = qi[:len(pu)]
			pred := mu + bu[e.Row] + bi[e.Col]
			for f, pf := range pu {
				pred += pf * qi[f]
			}
			err := e.V - pred
			sse += err * err
			bu[e.Row] += eta * (err - lambda*bu[e.Row])
			bi[e.Col] += eta * (err - lambda*bi[e.Col])
			for f, pf := range pu {
				qf := qi[f]
				pu[f] = pf + eta*(err*qf-lambda*pf)
				qi[f] = qf + eta*(err*pf-lambda*qf)
			}
		}
		rmse := math.Sqrt(sse / float64(len(cells)))
		m.Epochs = epoch + 1
		if prevRMSE-rmse < stopTol*prevRMSE {
			m.Rose = rmse > prevRMSE
			break
		}
		prevRMSE = rmse
	}
}

// sgd4 is sgd for K = 4: the factor rows are fixed-size arrays, so the dot product and the updates are written out — each one
// the general loop's expression, in its order — with no bounds checks in
// them and no per-entry branch.
func (m *Model) sgd4(cells []Cell, opts Options) {
	rng := sim.NewSource(shuffleSeed)
	p, q, bu, bi, mu := m.P.Data, m.Q.Data, m.BU, m.BI, m.Mu
	prevRMSE := math.Inf(1)
	for epoch := 0; epoch < opts.Epochs; epoch++ {
		sim.Shuffle(rng, cells)
		sse := 0.0
		for _, e := range cells {
			pu := (*[4]float64)(p[int(e.Row)*4:])
			qi := (*[4]float64)(q[int(e.Col)*4:])
			pred := mu + bu[e.Row] + bi[e.Col]
			pred += pu[0] * qi[0]
			pred += pu[1] * qi[1]
			pred += pu[2] * qi[2]
			pred += pu[3] * qi[3]
			err := e.V - pred
			sse += err * err
			bu[e.Row] += eta * (err - lambda*bu[e.Row])
			bi[e.Col] += eta * (err - lambda*bi[e.Col])
			p0, q0 := pu[0], qi[0]
			pu[0] = p0 + eta*(err*q0-lambda*p0)
			qi[0] = q0 + eta*(err*p0-lambda*q0)
			p1, q1 := pu[1], qi[1]
			pu[1] = p1 + eta*(err*q1-lambda*p1)
			qi[1] = q1 + eta*(err*p1-lambda*q1)
			p2, q2 := pu[2], qi[2]
			pu[2] = p2 + eta*(err*q2-lambda*p2)
			qi[2] = q2 + eta*(err*p2-lambda*q2)
			p3, q3 := pu[3], qi[3]
			pu[3] = p3 + eta*(err*q3-lambda*p3)
			qi[3] = q3 + eta*(err*p3-lambda*q3)
		}
		rmse := math.Sqrt(sse / float64(len(cells)))
		m.Epochs = epoch + 1
		if prevRMSE-rmse < stopTol*prevRMSE {
			m.Rose = rmse > prevRMSE
			break
		}
		prevRMSE = rmse
	}
}

// initFromSVD seeds P and Q from the leading singular triplets of the
// mean-imputed matrix, per the paper: missing entries are filled with µ,
// the SVD is computed, and Q ← U·sqrt(Σ), Pᵀ ← sqrt(Σ)·Vᵀ so that Q·Pᵀ
// reproduces the imputed matrix's low-rank structure. (The paper assigns
// Q ← U, Pᵀ ← ΣVᵀ; splitting Σ symmetrically conditions SGD better and is
// equivalent up to a diagonal rescaling.) The triplets are written straight
// into the zero P and Q, then scaled by √σ in place.
func (m *Model) initFromSVD(cells []Cell) {
	rows, cols, k := m.P.R, m.Q.R, m.K
	if rows == 0 || cols == 0 {
		return
	}
	var s [latentK]float64
	topKInto(SVD{U: m.P, S: s[:k], V: m.Q}, cells, rows, cols, m.Mu)
	for f, sigma := range s[:k] {
		root := math.Sqrt(sigma)
		for u := 0; u < rows; u++ {
			m.P.Data[u*k+f] *= root
		}
		for i := 0; i < cols; i++ {
			m.Q.Data[i*k+f] *= root
		}
	}
}

// Predict returns r̂_ui = µ + b_u + b_i + q_i·p_u.
func (m *Model) Predict(u, i int) float64 {
	s := m.Mu + m.BU[u] + m.BI[i]
	for f := 0; f < m.K; f++ {
		s += m.P.At(u, f) * m.Q.At(i, f)
	}
	return s
}

// PredictRow returns the full reconstructed row u.
func (m *Model) PredictRow(u int) []float64 {
	out := make([]float64, m.Q.R)
	for i := range out {
		out[i] = m.Predict(u, i)
	}
	return out
}

// RMSE returns the root-mean-square error over the observed entries of s,
// summed in (row, column) order so that it is bit-reproducible.
func (m *Model) RMSE(s *Sparse) float64 {
	sse, n := 0.0, 0
	for u := 0; u < s.Rows && u < m.P.R; u++ {
		for _, c := range s.Row(u) {
			d := c.V - m.Predict(u, int(c.Col))
			sse += d * d
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Sqrt(sse / float64(n))
}

// FoldIn estimates the full row of a workload not present at training time
// from its few observed entries, holding the trained column factors fixed.
// It solves the ridge regression
//
//	min_{p,b} Σ_obs (v_i − µ − b − b_i − q_i·p)² + λ(‖p‖² + b²)
//
// which is the standard fold-in for latent-factor models and is what makes
// per-arrival classification cost milliseconds instead of a full retrain.
// Observations outside [0, Cols) are ignored. K never exceeds latentK, so
// the normal equations live in fixed arrays and the returned row is the
// only allocation.
func (m *Model) FoldIn(obs map[int]float64) []float64 {
	k := m.K
	valid := 0
	for i := range obs {
		if i >= 0 && i < m.Q.R {
			valid++
		}
	}
	// Unknowns: [b, p_1..p_k].
	dim := k + 1
	var a [latentK + 1][latentK + 1]float64 // normal equations matrix
	var b, x, sol [latentK + 1]float64
	for i := 0; i < dim; i++ {
		a[i][i] = lambda * float64(max(1, valid))
	}
	// Ascending columns: float accumulation order must not depend on map
	// order.
	for i, seen := 0, 0; seen < valid; i++ {
		v, ok := obs[i]
		if !ok {
			continue
		}
		seen++
		// Feature vector x = [1, q_i].
		x[0] = 1
		for f := 0; f < k; f++ {
			x[f+1] = m.Q.At(i, f)
		}
		y := v - m.Mu - m.BI[i]
		for r := 0; r < dim; r++ {
			for c := 0; c < dim; c++ {
				a[r][c] += x[r] * x[c]
			}
			b[r] += x[r] * y
		}
	}
	solve(&a, &b, &sol, dim)
	bu, p := sol[0], sol[1:dim]
	out := make([]float64, m.Q.R)
	for i := range out {
		s := m.Mu + bu + m.BI[i]
		for f := 0; f < k; f++ {
			s += p[f] * m.Q.At(i, f)
		}
		out[i] = s
	}
	return out
}

// solve performs Gaussian elimination with partial pivoting on the leading
// n×n system a·x = b, writing x. It overwrites a and b. The ridge term
// guarantees a is positive definite, so this never fails.
func solve(a *[latentK + 1][latentK + 1]float64, b, x *[latentK + 1]float64, n int) {
	for col := 0; col < n; col++ {
		// Pivot.
		piv := col
		for r := col + 1; r < n; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[piv][col]) {
				piv = r
			}
		}
		a[col], a[piv] = a[piv], a[col]
		b[col], b[piv] = b[piv], b[col]
		d := a[col][col]
		if d == 0 { //lint:allow(floatcmp) exact-zero pivot guard before division
			continue
		}
		for r := col + 1; r < n; r++ {
			f := a[r][col] / d
			if f == 0 { //lint:allow(floatcmp) exactly-zero factor: row already eliminated
				continue
			}
			for c := col; c < n; c++ {
				a[r][c] -= f * a[col][c]
			}
			b[r] -= f * b[col]
		}
	}
	for r := n - 1; r >= 0; r-- {
		s := b[r]
		for c := r + 1; c < n; c++ {
			s -= a[r][c] * x[c]
		}
		x[r] = 0
		if a[r][r] != 0 { //lint:allow(floatcmp) exact-zero guard before division
			x[r] = s / a[r][r]
		}
	}
}
