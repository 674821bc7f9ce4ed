package cf

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// makeLowRankSparse builds a sparse observation of an underlying low-rank
// matrix, observing each cell with probability density. Returns the sparse
// matrix and the full ground truth.
func makeLowRankSparse(rows, cols, rank int, density float64, seed int64) (*Sparse, *Dense) {
	truth := lowRank(rows, cols, rank, seed)
	rng := rand.New(rand.NewSource(seed + 1))
	s := NewSparse(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if rng.Float64() < density {
				s.Set(i, j, truth.At(i, j))
			}
		}
	}
	// Guarantee at least two observations per row so every row is
	// learnable.
	for i := 0; i < rows; i++ {
		for len(s.Row(i)) < 2 {
			s.Set(i, rng.Intn(cols), truth.At(i, rng.Intn(cols)))
		}
	}
	return s, truth
}

func TestSparseBasics(t *testing.T) {
	s := NewSparse(3, 4)
	if s.NNZ() != 0 {
		t.Fatal("fresh sparse not empty")
	}
	s.Set(0, 1, 5)
	s.Set(0, 1, 6) // overwrite
	s.Set(2, 3, 1)
	if s.NNZ() != 2 {
		t.Fatalf("NNZ = %d, want 2", s.NNZ())
	}
	if v, ok := s.Get(0, 1); !ok || v != 6 {
		t.Fatalf("Get = %v,%v", v, ok)
	}
	if _, ok := s.Get(1, 1); ok {
		t.Fatal("Get of unset cell returned ok")
	}
	if math.Abs(s.Mean()-3.5) > 1e-12 {
		t.Fatalf("Mean = %v, want 3.5", s.Mean())
	}
	idx := s.AppendRow(map[int]float64{0: 2})
	if idx != 3 || s.Rows != 4 || s.NNZ() != 3 {
		t.Fatalf("AppendRow: idx=%d rows=%d nnz=%d", idx, s.Rows, s.NNZ())
	}
}

func TestSparseBoundsPanic(t *testing.T) {
	s := NewSparse(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range Set did not panic")
		}
	}()
	s.Set(5, 0, 1)
}

func TestTrainFitsObserved(t *testing.T) {
	s, _ := makeLowRankSparse(30, 20, 3, 0.5, 11)
	m := Train(s, DefaultOptions())
	if rmse := m.RMSE(s); rmse > 0.1 {
		t.Fatalf("training RMSE %v too high", rmse)
	}
}

func TestTrainGeneralizes(t *testing.T) {
	// With 50% density and true rank 3 <= K, held-out error should be
	// small relative to the value scale (~rank^0.5).
	s, truth := makeLowRankSparse(40, 25, 3, 0.5, 13)
	m := Train(s, DefaultOptions())
	sse, n := 0.0, 0
	for i := 0; i < 40; i++ {
		for j := 0; j < 25; j++ {
			if _, ok := s.Get(i, j); ok {
				continue
			}
			d := truth.At(i, j) - m.Predict(i, j)
			sse += d * d
			n++
		}
	}
	rmse := math.Sqrt(sse / float64(n))
	if rmse > 0.6 {
		t.Fatalf("held-out RMSE %v too high", rmse)
	}
}

func TestFoldInRecoversRow(t *testing.T) {
	// Train on 39 rows; fold in the 40th from 4 observations.
	s, truth := makeLowRankSparse(40, 25, 3, 0.6, 19)
	train := NewSparse(39, 25)
	for i := 0; i < 39; i++ {
		for _, c := range s.Row(i) {
			train.Set(i, int(c.Col), c.V)
		}
	}
	m := Train(train, DefaultOptions())
	obs := map[int]float64{}
	for j := 0; j < 25 && len(obs) < 4; j += 6 {
		obs[j] = truth.At(39, j)
	}
	pred := m.FoldIn(obs)
	sse, n := 0.0, 0
	scale := 0.0
	for j := 0; j < 25; j++ {
		d := pred[j] - truth.At(39, j)
		sse += d * d
		scale += truth.At(39, j) * truth.At(39, j)
		n++
	}
	relErr := math.Sqrt(sse) / math.Sqrt(scale)
	if relErr > 0.5 {
		t.Fatalf("fold-in relative error %v too high", relErr)
	}
}

func TestFoldInEmptyObsFallsBackToBias(t *testing.T) {
	s, _ := makeLowRankSparse(20, 10, 2, 0.6, 23)
	m := Train(s, DefaultOptions())
	pred := m.FoldIn(nil)
	for j, v := range pred {
		want := m.Mu + m.BI[j]
		if math.Abs(v-want) > 1e-6 {
			t.Fatalf("empty fold-in pred[%d] = %v, want bias %v", j, v, want)
		}
	}
}

func TestFoldInIgnoresOutOfRangeColumns(t *testing.T) {
	s, _ := makeLowRankSparse(20, 10, 2, 0.6, 29)
	m := Train(s, DefaultOptions())
	a := m.FoldIn(map[int]float64{0: 1, 99: 5, -3: 2})
	b := m.FoldIn(map[int]float64{0: 1})
	for j := range a {
		if math.Abs(a[j]-b[j]) > 1e-9 {
			t.Fatal("out-of-range observations affected fold-in")
		}
	}
}

// TestFoldInAllocatesOnlyItsRow: the normal equations, the feature vector
// and the solution stay on the stack; the returned row is the one
// allocation.
func TestFoldInAllocatesOnlyItsRow(t *testing.T) {
	s, _ := makeLowRankSparse(30, 15, 3, 0.7, 37)
	m := Train(s, DefaultOptions())
	obs := map[int]float64{0: 0.4, 6: -0.1, 14: 0.9, 99: 5, -3: 2}
	if allocs := testing.AllocsPerRun(100, func() { m.FoldIn(obs) }); allocs != 1 { //lint:allow(floatcmp) an exact count
		t.Fatalf("FoldIn allocates %v times per call, want 1", allocs)
	}
}

func TestTrainDeterministic(t *testing.T) {
	s, _ := makeLowRankSparse(15, 10, 2, 0.5, 31)
	m1 := Train(s, DefaultOptions())
	m2 := Train(s, DefaultOptions())
	for i := 0; i < 15; i++ {
		for j := 0; j < 10; j++ {
			if m1.Predict(i, j) != m2.Predict(i, j) {
				t.Fatal("training not deterministic")
			}
		}
	}
}

func TestTrainEmptyMatrix(t *testing.T) {
	s := NewSparse(5, 5)
	m := Train(s, DefaultOptions())
	if v := m.Predict(0, 0); v != 0 {
		t.Fatalf("empty-matrix prediction %v, want 0", v)
	}
}

func TestTrainSingleColumn(t *testing.T) {
	s := NewSparse(5, 1)
	for i := 0; i < 5; i++ {
		s.Set(i, 0, float64(i))
	}
	m := Train(s, DefaultOptions())
	for i := 0; i < 5; i++ {
		if math.Abs(m.Predict(i, 0)-float64(i)) > 0.5 {
			t.Fatalf("single-column fit off at %d: %v", i, m.Predict(i, 0))
		}
	}
}

func TestSolveLinearSystem(t *testing.T) {
	// 2x + y = 5; x + 3y = 10 -> x = 1, y = 3.
	var a [latentK + 1][latentK + 1]float64
	var b, x [latentK + 1]float64
	a[0][0], a[0][1], a[1][0], a[1][1] = 2, 1, 1, 3
	b[0], b[1] = 5, 10
	solve(&a, &b, &x, 2)
	if math.Abs(x[0]-1) > 1e-9 || math.Abs(x[1]-3) > 1e-9 {
		t.Fatalf("solve = %v, want [1 3]", x)
	}
}

func TestSolveNeedsPivoting(t *testing.T) {
	// Leading zero forces a pivot swap.
	var a [latentK + 1][latentK + 1]float64
	var b, x [latentK + 1]float64
	a[0][0], a[0][1], a[1][0], a[1][1] = 0, 1, 1, 0
	b[0], b[1] = 2, 3
	solve(&a, &b, &x, 2)
	if math.Abs(x[0]-3) > 1e-9 || math.Abs(x[1]-2) > 1e-9 {
		t.Fatalf("solve = %v, want [3 2]", x)
	}
}

// Property: fold-in of a row that was IN the training set approximates that
// row's trained predictions.
func TestFoldInConsistentWithTraining(t *testing.T) {
	s, _ := makeLowRankSparse(30, 15, 3, 0.7, 37)
	m := Train(s, DefaultOptions())
	f := func(rowRaw uint8) bool {
		u := int(rowRaw) % 30
		obs := s.Export()[u]
		pred := m.FoldIn(obs)
		// Compare on observed columns: both should be near the observed
		// values.
		for j, v := range obs {
			if math.Abs(pred[j]-v) > 1.0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
