package cf

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// trainReference is the implementation Train replaced, kept verbatim as the
// oracle: a full dense SVD of the mean-imputed matrix for the seed, a global
// sort of the entries, and an SGD loop through Dense.At/Set.
func trainReference(s *Sparse, opts Options) *Model {
	k := opts.K
	if k <= 0 {
		k = DefaultOptions().K
	}
	if k > s.Cols {
		k = s.Cols
	}
	if k > s.Rows {
		k = s.Rows
	}
	if k < 1 {
		k = 1
	}
	m := &Model{
		K:      k,
		Mu:     s.Mean(),
		BU:     make([]float64, s.Rows),
		BI:     make([]float64, s.Cols),
		P:      NewDense(s.Rows, k),
		Q:      NewDense(s.Cols, k),
		Lambda: opts.Lambda,
	}
	referenceInit(m, s)
	referenceSGD(m, s, opts)
	return m
}

func referenceInit(m *Model, s *Sparse) {
	if s.Rows == 0 || s.Cols == 0 {
		return
	}
	dense := NewDense(s.Rows, s.Cols)
	for u := 0; u < s.Rows; u++ {
		for i := 0; i < s.Cols; i++ {
			if v, ok := s.Get(u, i); ok {
				dense.Set(u, i, v-m.Mu)
			}
		}
	}
	svd := ComputeSVD(dense).Truncate(m.K)
	for u := 0; u < s.Rows; u++ {
		for f := 0; f < m.K && f < len(svd.S); f++ {
			m.P.Set(u, f, svd.U.At(u, f)*math.Sqrt(svd.S[f]))
		}
	}
	for i := 0; i < s.Cols; i++ {
		for f := 0; f < m.K && f < len(svd.S); f++ {
			m.Q.Set(i, f, svd.V.At(i, f)*math.Sqrt(svd.S[f]))
		}
	}
}

func referenceSGD(m *Model, s *Sparse, opts Options) {
	type obsEntry struct {
		u, i int
		v    float64
	}
	var entries []obsEntry
	for u := 0; u < s.Rows; u++ {
		for i, v := range s.Row(u) {
			entries = append(entries, obsEntry{u, i, v})
		}
	}
	if len(entries) == 0 {
		return
	}
	sort.Slice(entries, func(a, b int) bool {
		if entries[a].u != entries[b].u {
			return entries[a].u < entries[b].u
		}
		return entries[a].i < entries[b].i
	})
	rng := rand.New(rand.NewSource(opts.Seed))
	k := m.K
	prevRMSE := math.Inf(1)
	for epoch := 0; epoch < opts.Epochs; epoch++ {
		rng.Shuffle(len(entries), func(a, b int) { entries[a], entries[b] = entries[b], entries[a] })
		sse := 0.0
		for _, e := range entries {
			pred := m.Predict(e.u, e.i)
			err := e.v - pred
			sse += err * err
			m.BU[e.u] += opts.Eta * (err - opts.Lambda*m.BU[e.u])
			if opts.ItemBia {
				m.BI[e.i] += opts.Eta * (err - opts.Lambda*m.BI[e.i])
			}
			for f := 0; f < k; f++ {
				pu := m.P.At(e.u, f)
				qi := m.Q.At(e.i, f)
				m.P.Set(e.u, f, pu+opts.Eta*(err*qi-opts.Lambda*pu))
				m.Q.Set(e.i, f, qi+opts.Eta*(err*pu-opts.Lambda*qi))
			}
		}
		rmse := math.Sqrt(sse / float64(len(entries)))
		if prevRMSE-rmse < opts.Tol*prevRMSE {
			break
		}
		prevRMSE = rmse
	}
}

// trainFixtures are the matrices the pq tests train on, plus the shapes the
// classifier really sees: a short-fat library and a tall one whose later
// rows hold two entries each.
func trainFixtures() map[string]*Sparse {
	fx := map[string]*Sparse{}
	add := func(name string, rows, cols, rank int, density float64, seed int64) {
		fx[name], _ = makeLowRankSparse(rows, cols, rank, density, seed)
	}
	add("30x20", 30, 20, 3, 0.5, 11)
	add("40x25", 40, 25, 3, 0.5, 13)
	add("10x7", 10, 7, 2, 0.6, 17)
	add("15x10", 15, 10, 2, 0.5, 31)
	add("30x15", 30, 15, 3, 0.7, 37)
	add("12x81", 12, 81, 3, 1.0, 41)
	tall, _ := makeLowRankSparse(231, 81, 3, 1.0, 43)
	lib := NewSparse(231, 81)
	for u := 0; u < 231; u++ {
		for i, v := range tall.Row(u) {
			if u < 21 || i == 80 || i == (u*7)%80 {
				lib.Set(u, i, v)
			}
		}
	}
	fx["231x81-library"] = lib
	one := NewSparse(5, 1)
	for i := 0; i < 5; i++ {
		one.Set(i, 0, float64(i))
	}
	fx["5x1"] = one
	fx["empty"] = NewSparse(5, 5)
	return fx
}

func modelsBitEqual(a, b *Model) bool {
	eq := func(x, y []float64) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
				return false
			}
		}
		return true
	}
	return a.K == b.K && math.Float64bits(a.Mu) == math.Float64bits(b.Mu) &&
		eq(a.BU, b.BU) && eq(a.BI, b.BI) && eq(a.P.Data, b.P.Data) && eq(a.Q.Data, b.Q.Data)
}

// TestSGDLoopBitIdenticalToReference: from the same seed factors, the flat
// SGD loop over the row-ordered entry list lands on exactly the reference
// loop's model — same entry order, same shuffle draws, same arithmetic.
func TestSGDLoopBitIdenticalToReference(t *testing.T) {
	for name, s := range trainFixtures() {
		for _, itemBias := range []bool{true, false} {
			opts := DefaultOptions()
			opts.ItemBia = itemBias
			want := trainReference(s, opts)

			got := &Model{K: want.K, Mu: s.Mean(), BU: make([]float64, s.Rows), BI: make([]float64, s.Cols),
				P: NewDense(s.Rows, want.K), Q: NewDense(s.Cols, want.K), Lambda: opts.Lambda}
			referenceInit(got, s)
			got.sgd(s.Freeze(nil).cells, opts)
			if !modelsBitEqual(got, want) {
				t.Errorf("%s itemBias=%v: flat SGD loop diverged from the reference loop", name, itemBias)
			}
		}
	}
}

// TestTrainMatchesReference: Train seeds SGD from the Gram-side top-K
// triplets instead of a full dense SVD, which moves low-order digits of the
// seed only — the fitted model must be as good as the reference's.
func TestTrainMatchesReference(t *testing.T) {
	for name, s := range trainFixtures() {
		got, want := Train(s, DefaultOptions()), trainReference(s, DefaultOptions())
		if d := math.Abs(got.RMSE(s) - want.RMSE(s)); d > 1e-6 {
			t.Errorf("%s: RMSE %v vs reference %v (diff %g)", name, got.RMSE(s), want.RMSE(s), d)
		}
		if again := Train(s, DefaultOptions()); !modelsBitEqual(got, again) {
			t.Errorf("%s: Train twice on the same matrix is not bit-equal", name)
		}
	}
}
