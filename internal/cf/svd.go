package cf

import (
	"math"
	"sort"
)

// SVD holds a (possibly truncated) singular value decomposition
// A ≈ U · diag(S) · Vᵀ with U (m×k), S (k), V (n×k).
type SVD struct {
	U *Dense
	S []float64
	V *Dense
}

// ComputeSVD decomposes the dense matrix A (m×n) with one-sided Jacobi
// rotations. The method orthogonalizes the columns of a working copy of A;
// at convergence the column norms are the singular values, the normalized
// columns form U, and the accumulated rotations form V. It is exact (up to
// tolerance) and numerically robust, at a dozen or more sweeps of O(m·n²).
// Training no longer calls it (topK eigen-solves with symEig): it is the
// dense oracle the cf tests hold topK and symEig to, and what the
// performance ledger times as cf.svd_ms.
func ComputeSVD(a *Dense) *SVD {
	m, n := a.R, a.C
	// Column-major working copies for cache-friendly column ops.
	w := make([][]float64, n) // w[j] is column j of A
	v := make([][]float64, n) // v[j] is column j of V
	wbuf, vbuf := make([]float64, n*m), make([]float64, n*n)
	for j := 0; j < n; j++ {
		w[j] = wbuf[j*m : (j+1)*m : (j+1)*m]
		for i := 0; i < m; i++ {
			w[j][i] = a.At(i, j)
		}
		v[j] = vbuf[j*n : (j+1)*n : (j+1)*n]
		v[j][j] = 1
	}
	// sq[j] is the squared norm of column j, recomputed when a rotation
	// touches it: a pair that needs none costs one inner product, not three.
	sq := make([]float64, n)
	for j := range sq {
		sq[j] = dot(w[j], w[j])
	}

	const (
		tol       = 1e-10
		maxSweeps = 60
	)
	for sweep := 0; sweep < maxSweeps; sweep++ {
		off := 0.0
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				alpha, beta := sq[p], sq[q]
				if alpha == 0 || beta == 0 { //lint:allow(floatcmp) exactly-zero column norms: rotation undefined
					continue
				}
				gamma := dot(w[p], w[q])
				if math.Abs(gamma) <= tol*math.Sqrt(alpha*beta) {
					continue
				}
				off += gamma * gamma / (alpha * beta)
				// Jacobi rotation zeroing the (p,q) inner product.
				zeta := (beta - alpha) / (2 * gamma)
				t := sign(zeta) / (math.Abs(zeta) + math.Sqrt(1+zeta*zeta))
				c := 1 / math.Sqrt(1+t*t)
				s := c * t
				rotate(w[p], w[q], c, s)
				rotate(v[p], v[q], c, s)
				sq[p], sq[q] = dot(w[p], w[p]), dot(w[q], w[q])
			}
		}
		if off < tol {
			break
		}
	}

	// Column norms are singular values; sort descending.
	type col struct {
		sigma float64
		idx   int
	}
	cols := make([]col, n)
	for j := 0; j < n; j++ {
		cols[j] = col{math.Sqrt(sq[j]), j}
	}
	sort.Slice(cols, func(i, j int) bool { return cols[i].sigma > cols[j].sigma })

	out := &SVD{U: NewDense(m, n), S: make([]float64, n), V: NewDense(n, n)}
	for r, cinfo := range cols {
		out.S[r] = cinfo.sigma
		if cinfo.sigma > 0 {
			inv := 1 / cinfo.sigma
			for i := 0; i < m; i++ {
				out.U.Set(i, r, w[cinfo.idx][i]*inv)
			}
		}
		for i := 0; i < n; i++ {
			out.V.Set(i, r, v[cinfo.idx][i])
		}
	}
	return out
}

// dot returns Σ x[i]·y[i], accumulated in index order.
func dot(x, y []float64) float64 {
	y = y[:len(x)]
	s := 0.0
	for i, xi := range x {
		s += xi * y[i]
	}
	return s
}

// rotate applies the plane rotation (c, s) to the column pair (x, y).
func rotate(x, y []float64, c, s float64) {
	y = y[:len(x)]
	for i, xi := range x {
		yi := y[i]
		x[i] = c*xi - s*yi
		y[i] = s*xi + c*yi
	}
}

// Truncate keeps only the top-k singular triplets.
func (d *SVD) Truncate(k int) *SVD {
	if k >= len(d.S) {
		return d
	}
	u := NewDense(d.U.R, k)
	v := NewDense(d.V.R, k)
	for i := 0; i < d.U.R; i++ {
		for j := 0; j < k; j++ {
			u.Set(i, j, d.U.At(i, j))
		}
	}
	for i := 0; i < d.V.R; i++ {
		for j := 0; j < k; j++ {
			v.Set(i, j, d.V.At(i, j))
		}
	}
	return &SVD{U: u, S: append([]float64(nil), d.S[:k]...), V: v}
}

// Reconstruct returns U · diag(S) · Vᵀ.
func (d *SVD) Reconstruct() *Dense {
	m, n, k := d.U.R, d.V.R, len(d.S)
	out := NewDense(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for r := 0; r < k; r++ {
				s += d.U.At(i, r) * d.S[r] * d.V.At(j, r)
			}
			out.Set(i, j, s)
		}
	}
	return out
}

// Rank returns the number of singular values above eps relative to the
// largest.
func (d *SVD) Rank(eps float64) int {
	if len(d.S) == 0 || d.S[0] == 0 { //lint:allow(floatcmp) exact-zero guard before relative threshold
		return 0
	}
	r := 0
	for _, s := range d.S {
		if s > eps*d.S[0] {
			r++
		}
	}
	return r
}

func sign(x float64) float64 {
	if x < 0 {
		return -1
	}
	return 1
}

// noiseFloor is the singular value, relative to the largest, below which
// topK drops a triplet: a Gram matrix squares the condition number, so its
// eigenvalues carry absolute error ~ε·λ₁ and a σ under ~√ε·σ₁ is noise.
const noiseFloor = 1e-6

// topK returns the k leading singular triplets of the rows×cols matrix A
// holding v−mu at every cell (given in (row, column) order) and zero
// elsewhere, without materialising A: it eigen-decomposes the Gram matrix of
// the smaller side — AᵀA, or AAᵀ via the transpose — with symEig, takes
// σ = √λ and recovers the other side as A·v/σ. Cost
// O(Σ nnz_row² + min(rows,cols)³), independent of the larger dimension.
// Triplets under noiseFloor are zeros; k must not exceed min(rows, cols).
func topK(cells []cell, rows, cols int, mu float64, k int) *SVD {
	if rows < cols {
		t := topK(transposed(cells, cols), cols, rows, mu, k)
		return &SVD{U: t.V, S: t.S, V: t.U}
	}
	// Each row of A adds the outer product of its cells; both triangles get
	// the same products in the same order, so g is exactly symmetric.
	g := NewDense(cols, cols)
	for lo, hi := 0, 0; lo < len(cells); lo = hi {
		for hi = lo + 1; hi < len(cells) && cells[hi].u == cells[lo].u; hi++ {
		}
		for _, a := range cells[lo:hi] {
			ga := g.Data[int(a.i)*cols:]
			for _, b := range cells[lo:hi] {
				ga[b.i] += (a.v - mu) * (b.v - mu)
			}
		}
	}
	lambda, vecs := symEig(g)

	out := &SVD{U: NewDense(rows, k), S: make([]float64, k), V: NewDense(cols, k)}
	for f := 0; f < k && lambda[f] > noiseFloor*noiseFloor*lambda[0]; f++ {
		out.S[f] = math.Sqrt(lambda[f])
		for i, v := range vecs.Data[f*cols : (f+1)*cols] {
			out.V.Data[i*k+f] = v
		}
	}
	// U = A·V·Σ⁻¹ in one pass over the cells; a dropped triplet's V column
	// is zero, so its U column stays zero.
	for _, c := range cells {
		u, v := out.U.Data[int(c.u)*k:int(c.u)*k+k], out.V.Data[int(c.i)*k:int(c.i)*k+k]
		for f := range u {
			if out.S[f] > 0 {
				u[f] += (c.v - mu) * v[f] / out.S[f]
			}
		}
	}
	return out
}

// transposed returns the transpose's cells in its (row, column) order: a
// stable counting sort by column.
func transposed(cells []cell, cols int) []cell {
	start := make([]int, cols+1)
	for _, c := range cells {
		start[c.i+1]++
	}
	for i := 0; i < cols; i++ {
		start[i+1] += start[i]
	}
	out := make([]cell, len(cells))
	for _, c := range cells {
		out[start[c.i]] = cell{c.i, c.u, c.v}
		start[c.i]++
	}
	return out
}
