package cf

import (
	"math"
	"sort"
	"testing"
)

// warmFixture is a runtime retrain point on the 231x81 library fixture: the
// model fitted to its first 200 rows, and the matrix after a re-profile
// rewrote three cells of two known rows and 31 arrivals were appended.
func warmFixture() (s *Sparse, prev *Model) {
	lib := trainFixtures()["231x81-library"]
	s = NewSparse(200, 81)
	for u := 0; u < 200; u++ {
		for _, c := range lib.Row(u) {
			s.Set(u, int(c.Col), c.V)
		}
	}
	prev = Train(s, DefaultOptions())
	s.Set(3, 10, 0.25)
	s.Set(3, 80, -0.5)
	s.Set(150, 7, 0.125)
	for u := 200; u < lib.Rows; u++ {
		obs := map[int]float64{}
		for _, c := range lib.Row(u) {
			obs[int(c.Col)] = c.V
		}
		s.AppendRow(obs)
	}
	return s, prev
}

// TestTrainFrozenFromNilIsCold: with no previous model, and with one whose
// K or column count does not match the freeze, TrainFrozenFrom is exactly
// TrainFrozen's cold fit on every fixture.
func TestTrainFrozenFromNilIsCold(t *testing.T) {
	fixtures := trainFixtures()
	for name, s := range clampFixtures() {
		fixtures[name] = s
	}
	wrongK := Train(fixtures["3x10"], DefaultOptions()) // K = 3, 10 columns
	for name, s := range fixtures {
		want := TrainFrozen(s.Freeze(nil), DefaultOptions())
		seeds := []*Model{nil}
		if s.Cols != 10 || want.K != 3 { // a shape wrongK does not fit
			seeds = append(seeds, wrongK)
		}
		for _, prev := range seeds {
			got := TrainFrozenFrom(s.Freeze(nil), DefaultOptions(), prev)
			if !modelsBitEqual(got, want) || got.Epochs != want.Epochs || got.Rose != want.Rose || got.Warm {
				t.Errorf("%s (mismatched seed %v): not TrainFrozen's cold fit", name, prev != nil)
			}
		}
	}
}

// TestWarmFitRepeats: a warm fit is a deterministic function of the freeze
// and the model before it, and it does not write that model.
func TestWarmFitRepeats(t *testing.T) {
	s, prev := warmFixture()
	before := modelDigest(prev)
	a := TrainFrozenFrom(s.Freeze(nil), DefaultOptions(), prev)
	b := TrainFrozenFrom(s.Freeze(nil), DefaultOptions(), prev)
	if !a.Warm || !modelsBitEqual(a, b) || a.Epochs != b.Epochs || a.Rose != b.Rose {
		t.Fatalf("two warm fits of one freeze from one model differ (warm %v)", a.Warm)
	}
	if modelDigest(prev) != before {
		t.Fatal("the warm fit wrote the model it was seeded from")
	}
}

// TestWarmSeedIsPrevAndFoldIn: before the first epoch (a zero epoch cap),
// a row the previous model knows predicts what that model predicted, and an
// appended row's bias and factors are exactly FoldIn's solution for its
// cells against the previous model.
func TestWarmSeedIsPrevAndFoldIn(t *testing.T) {
	s, prev := warmFixture()
	seed := TrainFrozenFrom(s.Freeze(nil), Options{Epochs: 0}, prev)
	if !seed.Warm || seed.Epochs != 0 {
		t.Fatalf("zero-epoch warm fit: warm %v, %d epochs", seed.Warm, seed.Epochs)
	}
	for u := 0; u < prev.P.R; u++ {
		for i := 0; i < s.Cols; i++ {
			if g, w := seed.Predict(u, i), prev.Predict(u, i); math.Abs(g-w) > 1e-12*math.Max(1, math.Abs(w)) {
				t.Fatalf("known row %d col %d: seed predicts %v, previous model %v", u, i, g, w)
			}
		}
	}
	for u := prev.P.R; u < s.Rows; u++ {
		obs := map[int]float64{}
		for _, c := range s.Row(u) {
			obs[int(c.Col)] = c.V
		}
		// FoldIn's row, built from the seed's solution the way FoldIn builds
		// it from its own.
		want := prev.FoldIn(obs)
		for i := range want {
			got := prev.Mu + seed.BU[u] + prev.BI[i]
			for f := 0; f < prev.K; f++ {
				got += seed.P.At(u, f) * prev.Q.At(i, f)
			}
			if math.Float64bits(got) != math.Float64bits(want[i]) {
				t.Fatalf("appended row %d col %d: seed's solution gives %v, FoldIn %v", u, i, got, want[i])
			}
		}
	}
}

// sgdObjective is the loss SGD descends: over the observed cells, the
// squared error plus λ times the squared biases and factors the cell's
// update touches.
func sgdObjective(m *Model, s *Sparse) float64 {
	l := 0.0
	for u := 0; u < s.Rows; u++ {
		for _, c := range s.Row(u) {
			i := int(c.Col)
			d := c.V - m.Predict(u, i)
			r := m.BU[u]*m.BU[u] + m.BI[i]*m.BI[i]
			for f := 0; f < m.K; f++ {
				r += m.P.At(u, f)*m.P.At(u, f) + m.Q.At(i, f)*m.Q.At(i, f)
			}
			l += d*d + lambda*r
		}
	}
	return l
}

// TestWarmFitOfUnchangedFreezeLowersItsObjective: refitting the freeze a
// model was fitted to, from that model, ends no higher on SGD's objective
// than the model it started from, on every fixture. (The observed cells'
// RMSE alone can rise: a cold fit whose SVD seed already fits the cells
// stops after two epochs, short of the regularized optimum, and the refit
// moves on towards it — the K < 4 fixtures do.)
func TestWarmFitOfUnchangedFreezeLowersItsObjective(t *testing.T) {
	fixtures := trainFixtures()
	for name, s := range clampFixtures() {
		fixtures[name] = s
	}
	names := make([]string, 0, len(fixtures))
	for name := range fixtures {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s := fixtures[name]
		prev := Train(s, DefaultOptions())
		warm := TrainFrozenFrom(s.Freeze(nil), DefaultOptions(), prev)
		if s.NNZ() > 0 && !warm.Warm {
			t.Errorf("%s: refit from its own model was not warm", name)
		}
		if g, w := sgdObjective(warm, s), sgdObjective(prev, s); g > w {
			t.Errorf("%s: warm refit objective %v, above its seed's %v", name, g, w)
		}
	}
}
