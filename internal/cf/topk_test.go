package cf

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// sparseOf observes each cell of truth with probability density.
func sparseOf(truth *Dense, density float64, seed int64) *Sparse {
	rng := rand.New(rand.NewSource(seed))
	s := NewSparse(truth.R, truth.C)
	for i := 0; i < truth.R; i++ {
		for j := 0; j < truth.C; j++ {
			if rng.Float64() < density {
				s.Set(i, j, truth.At(i, j))
			}
		}
	}
	return s
}

// rankOne returns u_f·σ_f·v_fᵀ, which does not depend on the joint sign of
// the triplet.
func rankOne(d *SVD, f int) *Dense {
	out := NewDense(d.U.R, d.V.R)
	for i := 0; i < d.U.R; i++ {
		for j := 0; j < d.V.R; j++ {
			out.Set(i, j, d.U.At(i, f)*d.S[f]*d.V.At(j, f))
		}
	}
	return out
}

// checkTopK compares topK on s (centred at mu) against the full dense SVD
// truncated to k, for each k, on every triplet the oracle places above the
// noise floor.
func checkTopK(t *testing.T, name string, s *Sparse, mu float64, ks ...int) {
	t.Helper()
	cells := s.Freeze(nil).cells
	dense := NewDense(s.Rows, s.Cols)
	for _, c := range cells {
		dense.Set(int(c.u), int(c.i), c.v-mu)
	}
	full := oracleSVD(dense)
	for _, k := range ks {
		if k > s.Rows {
			k = s.Rows
		}
		if k > s.Cols {
			k = s.Cols
		}
		checkTriplets(t, fmt.Sprintf("%s/k=%d", name, k), topK(cells, s.Rows, s.Cols, mu, k), full.Truncate(k), k)
	}
}

// oracleSVD is the full one-sided Jacobi SVD. On a short-fat matrix Jacobi
// sweeps over column pairs that are mostly null space (29 s at 30×560), so
// beyond 100 columns the oracle decomposes the transpose and swaps the
// factors; the smaller short-fat shapes go through it directly.
func oracleSVD(a *Dense) *SVD {
	if a.R >= a.C || a.C <= 100 {
		return ComputeSVD(a)
	}
	at := NewDense(a.C, a.R)
	for i := 0; i < a.R; i++ {
		for j := 0; j < a.C; j++ {
			at.Set(j, i, a.At(i, j))
		}
	}
	t := ComputeSVD(at)
	return &SVD{U: t.V, S: t.S, V: t.U}
}

func checkTriplets(t *testing.T, name string, got, want *SVD, k int) {
	t.Helper()
	rows, cols := want.U.R, want.V.R
	if len(got.S) != k || got.U.R != rows || got.U.C != k || got.V.R != cols || got.V.C != k {
		t.Fatalf("%s: shapes U %dx%d S %d V %dx%d, want k=%d", name, got.U.R, got.U.C, len(got.S), got.V.R, got.V.C, k)
	}
	kept := 0
	for kept < k && want.S[kept] > noiseFloor*want.S[0] {
		kept++
	}
	for f := 0; f < k; f++ {
		if f >= kept {
			// Below the floor the oracle's value is noise and topK reports
			// either noise of its own or exactly zero.
			if got.S[f] > 10*noiseFloor*want.S[0] {
				t.Errorf("%s: σ[%d] = %g, oracle says noise (%g)", name, f, got.S[f], want.S[f])
			}
			continue
		}
		if rel := math.Abs(got.S[f]-want.S[f]) / want.S[f]; rel > 1e-9 {
			t.Errorf("%s: σ[%d] = %.17g, want %.17g (rel %g)", name, f, got.S[f], want.S[f], rel)
		}
		if d := maxAbsDiff(rankOne(got, f), rankOne(want, f)); d > 1e-8*want.S[0] {
			t.Errorf("%s: triplet %d differs from the oracle by %g (σ₁ = %g)", name, f, d, want.S[0])
		}
	}
	keptCols := func(m *Dense) *Dense {
		out := NewDense(m.R, kept)
		for i := 0; i < m.R; i++ {
			copy(out.Data[i*kept:(i+1)*kept], m.Data[i*m.C:i*m.C+kept])
		}
		return out
	}
	for side, m := range map[string]*Dense{"U": got.U, "V": got.V} {
		if off, norm := columnDots(keptCols(m)); off > 1e-8 || norm > 1e-8 {
			t.Errorf("%s: %s not orthonormal: off-diagonal %g, norm error %g", name, side, off, norm)
		}
	}
}

// TestTopKMatchesDenseSVD: the Gram-side top-K agrees with the truncated
// full SVD on seeded random sparse matrices of every shape the classifier
// produces, centred at their mean the way Train centres them.
func TestTopKMatchesDenseSVD(t *testing.T) {
	t.Parallel()
	shapes := []struct {
		rows, cols int
		density    float64
	}{
		{300, 20, 0.3}, {231, 81, 0.25}, {81, 81, 0.5}, {40, 10, 1.0}, {7, 5, 0.8}, // rows >= cols
		{538, 81, 0.1},
		{12, 81, 1.0}, {12, 81, 0.4}, {80, 81, 0.2}, {30, 560, 0.7}, // rows < cols
	}
	seeds := int64(3)
	if testing.Short() {
		seeds = 1 // the oracle is a full Jacobi SVD per matrix
	}
	for _, sh := range shapes {
		for seed := int64(1); seed <= seeds; seed++ {
			s := sparseOf(randomDense(sh.rows, sh.cols, seed), sh.density, seed+100)
			checkTopK(t, fmt.Sprintf("%dx%d@%.1f/seed%d", sh.rows, sh.cols, sh.density, seed), s, s.Mean(), 4, 1)
		}
	}
}

// TestTopKDegenerateShapes: rank-deficient input (fewer real triplets than
// k), a single row, a single column, and all-equal observations (a zero
// matrix once centred).
func TestTopKDegenerateShapes(t *testing.T) {
	t.Parallel()
	for seed := int64(1); seed <= 3; seed++ {
		// Fully observed and uncentred, so the rank really is 2.
		checkTopK(t, "rank2-tall", sparseOf(lowRank(60, 12, 2, seed), 1, seed), 0, 4)
		checkTopK(t, "rank2-wide", sparseOf(lowRank(9, 40, 2, seed), 1, seed), 0, 4)
		checkTopK(t, "rank1-centred", sparseOf(lowRank(25, 8, 1, seed), 0.6, seed), 0.1, 4)
		checkTopK(t, "one-row", sparseOf(randomDense(1, 10, seed), 0.7, seed), 0.2, 4)
		checkTopK(t, "one-column", sparseOf(randomDense(10, 1, seed), 0.7, seed), 0.2, 4)
	}
	equal := NewSparse(6, 5)
	for i := 0; i < 6; i++ {
		for j := i % 2; j < 5; j += 2 {
			equal.Set(i, j, 3)
		}
	}
	checkTopK(t, "all-equal-centred", equal, equal.Mean(), 4)
	checkTopK(t, "all-equal-raw", equal, 0, 4)
	checkTopK(t, "empty", NewSparse(4, 3), 0, 4)

	got := topK(equal.Freeze(nil).cells, 6, 5, equal.Mean(), 4)
	for _, m := range [][]float64{got.S, got.U.Data, got.V.Data} {
		for _, v := range m {
			if v != 0 {
				t.Fatalf("all-equal observations centred at their mean must seed nothing, got %v", m)
			}
		}
	}
}

func TestTransposedOrder(t *testing.T) {
	s := sparseOf(randomDense(7, 4, 5), 0.5, 6)
	tr := transposed(s.Freeze(nil).cells, 4)
	if len(tr) != s.NNZ() {
		t.Fatalf("%d cells, want %d", len(tr), s.NNZ())
	}
	for n, c := range tr {
		if v, ok := s.Get(int(c.i), int(c.u)); !ok || v != c.v {
			t.Fatalf("cell %+v is not an observation of the source", c)
		}
		if n > 0 && (tr[n-1].u > c.u || (tr[n-1].u == c.u && tr[n-1].i >= c.i)) {
			t.Fatalf("cells %+v, %+v out of (row, column) order", tr[n-1], c)
		}
	}
}
