package cf

import (
	"fmt"
	"math"
	"testing"
)

// gramOf returns BᵀB for a random rank×order B: a symmetric PSD matrix of
// the given order and (at most) the given rank, exactly symmetric because
// both triangles sum the same products in the same order.
func gramOf(order, rank int, seed int64) *Dense {
	b := randomDense(rank, order, seed)
	g := NewDense(order, order)
	for r := 0; r < rank; r++ {
		for i := 0; i < order; i++ {
			for j := 0; j < order; j++ {
				g.Data[i*order+j] += b.At(r, i) * b.At(r, j)
			}
		}
	}
	return g
}

// eigQuality measures a decomposition of g: the largest residual
// ‖G·v−λ·v‖∞ and the largest deviation of the eigenvector rows from an
// orthonormal set, both absolute.
func eigQuality(g *Dense, vals []float64, vecs *Dense) (residual, ortho float64) {
	n := g.R
	for f := 0; f < n; f++ {
		v := vecs.Data[f*n : (f+1)*n]
		for i := 0; i < n; i++ {
			residual = math.Max(residual, math.Abs(dot(g.Data[i*n:(i+1)*n], v)-vals[f]*v[i]))
		}
		for h := f; h < n; h++ {
			want := 0.0
			if h == f {
				want = 1
			}
			ortho = math.Max(ortho, math.Abs(dot(v, vecs.Data[h*n:(h+1)*n])-want))
		}
	}
	return residual, ortho
}

// checkSymEig decomposes g with symEig and holds it to the solver's
// contract — descending order, residuals and orthonormality at rounding
// level relative to λ₁ — and to the Jacobi oracle: same eigenvalues (1e-10
// relative to λ₁), and the same eigenvector, up to sign, wherever an
// eigenvalue is separated from its neighbours.
func checkSymEig(t testing.TB, name string, g *Dense) (vals []float64) {
	t.Helper()
	n := g.R
	vals, vecs := symEig(g.Clone())
	if len(vals) != n || vecs.R != n || vecs.C != n {
		t.Fatalf("%s: %d values, %dx%d vectors for order %d", name, len(vals), vecs.R, vecs.C, n)
	}
	if n == 0 {
		return vals
	}
	for f := 1; f < n; f++ {
		if vals[f] > vals[f-1] {
			t.Fatalf("%s: eigenvalues not descending: λ[%d]=%g > λ[%d]=%g", name, f, vals[f], f-1, vals[f-1])
		}
	}
	scale := math.Max(math.Abs(vals[0]), math.Abs(vals[n-1]))
	residual, ortho := eigQuality(g, vals, vecs)
	if tol := 1e-13 * scale * float64(n); residual > tol {
		t.Errorf("%s: residual ‖Gv−λv‖ = %g, want ≤ %g (λ₁ = %g)", name, residual, tol, scale)
	}
	if ortho > 1e-13*float64(n) {
		t.Errorf("%s: eigenvectors off orthonormal by %g", name, ortho)
	}

	oracle := ComputeSVD(g) // for a symmetric PSD matrix: S = λ, V's columns the eigenvectors
	for f := 0; f < n; f++ {
		if d := math.Abs(vals[f] - oracle.S[f]); d > 1e-10*scale {
			t.Errorf("%s: λ[%d] = %.17g, Jacobi %.17g (diff %g, λ₁ = %g)", name, f, vals[f], oracle.S[f], d, scale)
		}
		gap := math.Inf(1)
		if f > 0 {
			gap = math.Min(gap, oracle.S[f-1]-oracle.S[f])
		}
		if f < n-1 {
			gap = math.Min(gap, oracle.S[f]-oracle.S[f+1])
		}
		if gap < 1e-4*scale {
			continue // (nearly) repeated: only the subspace is determined
		}
		cos := 0.0
		for i := 0; i < n; i++ {
			cos += vecs.Data[f*n+i] * oracle.V.At(i, f)
		}
		if math.Abs(cos) < 1-1e-9 {
			t.Errorf("%s: eigenvector %d (gap %g·λ₁) is off Jacobi's: |cos| = %.12f", name, f, gap/scale, math.Abs(cos))
		}
	}
	return vals
}

// TestSymEigRandomPSD: every order from 1 to 120, full rank.
func TestSymEigRandomPSD(t *testing.T) {
	t.Parallel()
	step := 1
	if testing.Short() {
		step = 7 // the oracle is a full Jacobi solve per matrix
	}
	for n := 1; n <= 120; n += step {
		checkSymEig(t, fmt.Sprintf("order %d", n), gramOf(n, n+3, int64(n)))
	}
}

// TestSymEigRankDeficient: AᵀA of a dense 12×81 and 26×81 library has as
// many non-zero eigenvalues as the library has rows; the other 69 / 55 must
// come out under the floor topK cuts at, not as noise above it.
func TestSymEigRankDeficient(t *testing.T) {
	t.Parallel()
	for _, rows := range []int{12, 26} {
		vals := checkSymEig(t, fmt.Sprintf("%dx81", rows), gramOf(81, rows, int64(rows)))
		floor := noiseFloor * noiseFloor * vals[0]
		for f, v := range vals {
			if f < rows && v <= floor {
				t.Errorf("%dx81: λ[%d] = %g is under the noise floor %g; want %d eigenvalues above it", rows, f, v, floor, rows)
			}
			if f >= rows && math.Abs(v) > floor {
				t.Errorf("%dx81: λ[%d] = %g should be zero (rank %d), noise floor %g", rows, f, v, rows, floor)
			}
		}
	}
}

// TestSymEigOnLibraryGrams: the Gram matrices Train really builds — of the
// smaller side, centred at the mean, accumulated from the sparse cells — at
// every shape BenchmarkTrain runs and the degenerate 1×5.
func TestSymEigOnLibraryGrams(t *testing.T) {
	t.Parallel()
	for _, sh := range []struct{ rows, cols, dense int }{
		{12, 81, 12}, {26, 81, 26}, {231, 81, 21}, {231, 10, 21}, {30, 560, 30}, {1, 5, 1},
	} {
		s := libraryShaped(sh.rows, sh.cols, sh.dense, 7)
		cells, n := s.Freeze(nil).cells, s.Cols
		if s.Rows < s.Cols {
			cells, n = transposed(cells, s.Cols), s.Rows
		}
		mu := meanOf(cells)
		g := NewDense(n, n)
		for lo, hi := 0, 0; lo < len(cells); lo = hi {
			for hi = lo + 1; hi < len(cells) && cells[hi].Row == cells[lo].Row; hi++ {
			}
			for _, a := range cells[lo:hi] {
				for _, b := range cells[lo:hi] {
					g.Data[int(a.Col)*n+int(b.Col)] += (a.V - mu) * (b.V - mu)
				}
			}
		}
		checkSymEig(t, fmt.Sprintf("%dx%d", sh.rows, sh.cols), g)
	}
}

// TestSymEigDegenerate: the zero matrix, order 0 and 1, repeated eigenvalues
// (the Gram matrix of TestTopKDegenerateShapes' all-equal fixture, and a
// scaled identity), and a graded matrix whose eigenvalues span 1e0…1e-14.
func TestSymEigDegenerate(t *testing.T) {
	t.Parallel()
	for _, n := range []int{0, 1, 2, 5, 40} {
		vals := checkSymEig(t, fmt.Sprintf("zero %d", n), NewDense(n, n))
		for _, v := range vals {
			if v != 0 {
				t.Errorf("zero matrix of order %d has eigenvalue %g", n, v)
			}
		}
	}
	one := NewDense(1, 1)
	one.Set(0, 0, 7)
	if vals, vecs := symEig(one); vals[0] != 7 || math.Abs(vecs.Data[0]) != 1 {
		t.Errorf("1x1: λ = %v, v = %v, want 7 and ±1", vals, vecs.Data)
	}

	// All-equal observations, uncentred: rows alternate between the even and
	// the odd columns, so the 5×5 Gram matrix is two constant blocks — two
	// non-zero eigenvalues, a triple zero.
	equal := NewDense(5, 5)
	for i := 0; i < 6; i++ {
		for a := i % 2; a < 5; a += 2 {
			for b := i % 2; b < 5; b += 2 {
				equal.Data[a*5+b] += 9
			}
		}
	}
	if vals := checkSymEig(t, "all-equal", equal); math.Abs(vals[0]-81) > 1e-12 || math.Abs(vals[1]-54) > 1e-12 || math.Abs(vals[2]) > 1e-12 {
		t.Errorf("all-equal: λ = %v, want 81, 54, 0, 0, 0", vals)
	}
	ident := NewDense(30, 30)
	for i := 0; i < 30; i++ {
		ident.Set(i, i, 2.5)
	}
	for _, v := range checkSymEig(t, "scaled identity", ident) {
		if v != 2.5 {
			t.Errorf("scaled identity has eigenvalue %g", v)
		}
	}

	// Graded: Q·diag(1, 1e-1, …, 1e-14)·Qᵀ with Q from a random full-rank
	// decomposition. Every eigenvalue must be right to rounding error of λ₁.
	const n = 15
	_, q := symEig(gramOf(n, n, 99))
	graded := NewDense(n, n)
	for f := 0; f < n; f++ {
		lambda := math.Pow(10, -float64(f))
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				graded.Data[i*n+j] += lambda * q.Data[f*n+i] * q.Data[f*n+j]
			}
		}
	}
	for i := 0; i < n; i++ { // the sum above is symmetric only to rounding
		for j := 0; j < i; j++ {
			graded.Data[i*n+j] = graded.Data[j*n+i]
		}
	}
	for f, v := range checkSymEig(t, "graded", graded) {
		if want := math.Pow(10, -float64(f)); math.Abs(v-want) > 1e-14 {
			t.Errorf("graded: λ[%d] = %g, want %g within 1e-14·λ₁", f, v, want)
		}
	}
}

// TestSymEigNonFiniteTerminates: NaN and ±Inf anywhere in the input must
// come back (as garbage), not spin in the QL iteration.
func TestSymEigNonFiniteTerminates(t *testing.T) {
	t.Parallel()
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.MaxFloat64} {
		for _, n := range []int{1, 2, 9, 40} {
			for _, at := range [][2]int{{0, 0}, {n - 1, n - 1}, {0, n - 1}, {n / 2, n / 3}} {
				g := gramOf(n, n, 5)
				g.Set(at[0], at[1], bad)
				g.Set(at[1], at[0], bad)
				if vals, vecs := symEig(g); len(vals) != n || vecs.R != n {
					t.Fatalf("order %d with %g at %v: %d values", n, bad, at, len(vals))
				}
			}
		}
	}
	all := NewDense(12, 12)
	for i := range all.Data {
		all.Data[i] = math.NaN()
	}
	symEig(all)
}

// TestSeedSignDoesNotMatter is why symEig imposes no sign convention:
// negating any (u_f, v_f) pair of the SVD seed — the only freedom an
// eigenvector has when its eigenvalue is simple — negates the matching
// columns of P and Q through every SGD step and cancels in every product, so
// predictions and fold-in rows are bit-equal.
func TestSeedSignDoesNotMatter(t *testing.T) {
	fit := func(s *Sparse, flip int) *Model {
		opts := DefaultOptions()
		f := s.Freeze(nil)
		k := min(opts.K, s.Rows, s.Cols)
		m := &Model{K: k, Mu: meanOf(f.cells), BU: make([]float64, s.Rows), BI: make([]float64, s.Cols),
			P: NewDense(s.Rows, k), Q: NewDense(s.Cols, k), Lambda: opts.Lambda}
		m.initFromSVD(f.cells)
		if flip >= 0 {
			for _, d := range []*Dense{m.P, m.Q} {
				for i := 0; i < d.R; i++ {
					d.Data[i*k+flip] = -d.Data[i*k+flip]
				}
			}
		}
		m.sgd(f.cells, opts)
		return m
	}
	for name, s := range trainFixtures() {
		if s.NNZ() == 0 || s.Cols < 2 {
			continue
		}
		want := fit(s, -1)
		if !modelsBitEqual(want, Train(s, DefaultOptions())) {
			t.Fatalf("%s: the test's copy of TrainFrozen has drifted from it", name)
		}
		fold := map[int]float64{0: 0.3, s.Cols - 1: -0.2}
		for flip := 0; flip < want.K; flip++ {
			got := fit(s, flip)
			if modelsBitEqual(got, want) && want.P.At(0, flip) != 0 {
				t.Fatalf("%s: negating factor %d changed nothing — the test proves nothing", name, flip)
			}
			for u := 0; u < s.Rows; u++ {
				for i := 0; i < s.Cols; i++ {
					if g, w := got.Predict(u, i), want.Predict(u, i); math.Float64bits(g) != math.Float64bits(w) {
						t.Fatalf("%s: factor %d negated: prediction (%d,%d) = %v, want %v", name, flip, u, i, g, w)
					}
				}
			}
			g, w := got.FoldIn(fold), want.FoldIn(fold)
			for i := range w {
				if math.Float64bits(g[i]) != math.Float64bits(w[i]) {
					t.Fatalf("%s: factor %d negated: fold-in column %d = %v, want %v", name, flip, i, g[i], w[i])
				}
			}
		}
	}
}

// FuzzSymEigMatchesJacobi holds symEig to checkSymEig's contract on the Gram
// matrix of a random rank×order matrix, any rank from zero to beyond full.
// The committed corpus (testdata/fuzz) covers the orders the engine solves
// (10, 81), order 0 and 1, rank 0, rank 1 and the rank-deficient libraries.
func FuzzSymEigMatchesJacobi(f *testing.F) {
	f.Fuzz(func(t *testing.T, order uint8, seed int64, rank uint8) {
		n, r := int(order)%96, int(rank)%112
		checkSymEig(t, fmt.Sprintf("order %d rank %d seed %d", n, r, seed), gramOf(n, r, seed))
	})
}

// TestSymEigReadsUpperTriangle: topK builds only the Gram matrix's upper
// triangle, so symEig must not read below the diagonal. A lower triangle of
// NaNs must leave every output bit as the symmetric matrix gives it.
func TestSymEigReadsUpperTriangle(t *testing.T) {
	for _, n := range []int{1, 2, 10, 81} {
		g := gramOf(n, n, 5)
		upper := g.Clone()
		for i := 0; i < n; i++ {
			for j := 0; j < i; j++ {
				upper.Data[i*n+j] = math.NaN()
			}
		}
		wantVals, wantVecs := symEig(g)
		gotVals, gotVecs := symEig(upper)
		for i := range wantVals {
			if math.Float64bits(gotVals[i]) != math.Float64bits(wantVals[i]) {
				t.Fatalf("order %d: eigenvalue %d is %v from the upper triangle, %v from the full matrix", n, i, gotVals[i], wantVals[i])
			}
		}
		for i := range wantVecs.Data {
			if math.Float64bits(gotVecs.Data[i]) != math.Float64bits(wantVecs.Data[i]) {
				t.Fatalf("order %d: eigenvector entry %d is %v from the upper triangle, %v from the full matrix", n, i, gotVecs.Data[i], wantVecs.Data[i])
			}
		}
	}
}

var eigSink []float64

// BenchmarkSymEig: the eigen-solve alone at the hetero (10), scale-up (81)
// and a mid-sized joint (390) Gram order.
func BenchmarkSymEig(b *testing.B) {
	for _, n := range []int{10, 81, 390} {
		g := gramOf(n, n, 3)
		work := NewDense(n, n)
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(work.Data, g.Data)
				eigSink, _ = symEig(work)
			}
		})
	}
}
