package cf

import (
	"math"
	"math/rand"
	"sort"
)

// Options configures PQ-reconstruction. The defaults follow the paper: a
// simple latent-factor model r̂_ui = µ + b_u + q_i·p_u trained by SGD with
// learning rate η and regularization λ, initialized from the SVD of the
// mean-imputed matrix (Pᵀ ← ΣVᵀ, Q ← U), iterating until the L2 norm of the
// prediction error becomes marginal.
type Options struct {
	K       int     // number of latent factors
	Eta     float64 // SGD learning rate
	Lambda  float64 // regularization factor
	Epochs  int     // maximum SGD epochs
	Tol     float64 // stop when relative RMSE improvement falls below Tol
	Seed    int64   // RNG seed for entry-order shuffling
	ItemBia bool    // also learn per-column (item) bias b_i
}

// DefaultOptions returns the options used by the classification engine.
func DefaultOptions() Options {
	return Options{K: 4, Eta: 0.05, Lambda: 0.02, Epochs: 500, Tol: 1e-6, Seed: 1, ItemBia: true}
}

// Model is a trained latent-factor model over a sparse matrix.
type Model struct {
	K      int
	Mu     float64
	BU     []float64 // row (user) biases
	BI     []float64 // column (item) biases
	P      *Dense    // row factors, Rows×K
	Q      *Dense    // column factors, Cols×K
	Lambda float64
}

// Train fits a latent-factor model to the observed entries of s.
func Train(s *Sparse, opts Options) *Model { return TrainFrozen(s.Freeze(nil), opts) }

// TrainFrozen fits a latent-factor model to a frozen matrix. The model is a
// pure function of (the frozen cells, rows, cols, opts): the shuffle re-seeds
// from opts.Seed on every call, so fitting a capture later gives exactly the
// model fitting it on the spot would have. It consumes f — SGD shuffles the
// cell list in place — so Freeze into f again before training from it again.
func TrainFrozen(f *Frozen, opts Options) *Model {
	k := opts.K
	if k <= 0 {
		k = DefaultOptions().K
	}
	k = max(1, min(k, f.Rows, f.Cols))
	m := &Model{
		K:      k,
		Mu:     meanOf(f.cells),
		BU:     make([]float64, f.Rows),
		BI:     make([]float64, f.Cols),
		P:      NewDense(f.Rows, k),
		Q:      NewDense(f.Cols, k),
		Lambda: opts.Lambda,
	}
	m.initFromSVD(f.cells)
	m.sgd(f.cells, opts)
	return m
}

// sgd refines the model over the observed entries, reshuffled (in place)
// every epoch starting from their (row, column) order, until the RMSE
// improvement becomes marginal. The classifier's innermost loop: nnz × epochs
// steps per retrain, over the factor matrices as flat slices.
func (m *Model) sgd(cells []cell, opts Options) {
	if len(cells) == 0 {
		return
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	swap := func(a, b int) { cells[a], cells[b] = cells[b], cells[a] }
	k, p, q, bu, bi := m.K, m.P.Data, m.Q.Data, m.BU, m.BI
	mu, eta, lambda := m.Mu, opts.Eta, opts.Lambda
	prevRMSE := math.Inf(1)
	for epoch := 0; epoch < opts.Epochs; epoch++ {
		rng.Shuffle(len(cells), swap)
		sse := 0.0
		for _, e := range cells {
			pu := p[int(e.u)*k : int(e.u)*k+k]
			qi := q[int(e.i)*k : int(e.i)*k+k]
			pred := mu + bu[e.u] + bi[e.i]
			for f, pf := range pu {
				pred += pf * qi[f]
			}
			err := e.v - pred
			sse += err * err
			bu[e.u] += eta * (err - lambda*bu[e.u])
			if opts.ItemBia {
				bi[e.i] += eta * (err - lambda*bi[e.i])
			}
			for f, pf := range pu {
				qf := qi[f]
				pu[f] = pf + eta*(err*qf-lambda*pf)
				qi[f] = qf + eta*(err*pf-lambda*qf)
			}
		}
		rmse := math.Sqrt(sse / float64(len(cells)))
		if prevRMSE-rmse < opts.Tol*prevRMSE {
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
// equivalent up to a diagonal rescaling.)
func (m *Model) initFromSVD(cells []cell) {
	rows, cols := m.P.R, m.Q.R
	if rows == 0 || cols == 0 {
		return
	}
	svd := topK(cells, rows, cols, m.Mu, m.K)
	for f, sigma := range svd.S {
		root := math.Sqrt(sigma)
		for u := 0; u < rows; u++ {
			m.P.Set(u, f, svd.U.At(u, f)*root)
		}
		for i := 0; i < cols; i++ {
			m.Q.Set(i, f, svd.V.At(i, f)*root)
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

// RMSE returns the root-mean-square error over the observed entries of s.
func (m *Model) RMSE(s *Sparse) float64 {
	sse, n := 0.0, 0
	for u := 0; u < s.Rows && u < m.P.R; u++ {
		for i, v := range s.Row(u) {
			d := v - m.Predict(u, i)
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
	a := make([][]float64, dim) // normal equations matrix
	for i := range a {
		a[i] = make([]float64, dim)
		a[i][i] = m.Lambda * float64(max(1, valid))
	}
	b := make([]float64, dim)
	// Deterministic iteration: float accumulation order must not depend on
	// map order.
	keys := make([]int, 0, len(obs))
	for i := range obs {
		keys = append(keys, i)
	}
	sort.Ints(keys)
	for _, i := range keys {
		v := obs[i]
		if i < 0 || i >= m.Q.R {
			continue
		}
		// Feature vector x = [1, q_i].
		x := make([]float64, dim)
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
	sol := solve(a, b)
	bu, p := sol[0], sol[1:]
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

// solve performs Gaussian elimination with partial pivoting on a·x = b.
// The ridge term guarantees a is positive definite, so this never fails.
func solve(a [][]float64, b []float64) []float64 {
	n := len(b)
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
	x := make([]float64, n)
	for r := n - 1; r >= 0; r-- {
		s := b[r]
		for c := r + 1; c < n; c++ {
			s -= a[r][c] * x[c]
		}
		if a[r][r] != 0 { //lint:allow(floatcmp) exact-zero guard before division
			x[r] = s / a[r][r]
		}
	}
	return x
}
