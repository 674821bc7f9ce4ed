package cf

import (
	"slices"
	"testing"
)

// TestFreezeIsImmuneToLaterWrites: a Frozen holds the matrix as it stood;
// overwriting a cell, adding a cell and appending a row afterwards change
// neither its cells nor the model fitted from it.
func TestFreezeIsImmuneToLaterWrites(t *testing.T) {
	for name, s := range trainFixtures() {
		if s.Rows == 0 || s.Cols < 2 {
			continue
		}
		want := Train(s, DefaultOptions())
		f := s.Freeze(nil)
		cells := slices.Clone(f.cells)

		s.Set(0, 0, 1e6)
		s.Set(s.Rows-1, s.Cols-1, -1e6)
		s.AppendRow(map[int]float64{0: 42, s.Cols - 1: -42})

		if f.Rows != want.P.R || f.Cols != want.Q.R || !slices.Equal(f.cells, cells) {
			t.Fatalf("%s: writes to the matrix reached its freeze", name)
		}
		if got := TrainFrozen(f, DefaultOptions()); !modelsBitEqual(got, want) {
			t.Errorf("%s: model fitted from the freeze after later writes differs from the one fitted on the spot", name)
		}
		if now := Train(s, DefaultOptions()); modelsBitEqual(now, want) {
			t.Errorf("%s: the writes did not change the live matrix's model — the fixture proves nothing", name)
		}
	}
}

// TestFreezeReusesConsumedBuffer: TrainFrozen shuffles the frozen cells in
// place; freezing into the same Frozen again must restore (row, column)
// order, hold exactly the matrix's current cells — also when the matrix
// shrank below the buffer's old length — and fit the same model as a fresh
// freeze.
func TestFreezeReusesConsumedBuffer(t *testing.T) {
	big, _ := makeLowRankSparse(40, 25, 3, 0.5, 13)
	small, _ := makeLowRankSparse(10, 7, 2, 0.6, 17)
	var f *Frozen
	for round, s := range []*Sparse{big, big, small, big} {
		f = s.Freeze(f)
		if !slices.Equal(f.cells, s.Freeze(nil).cells) {
			t.Fatalf("round %d: freeze into a consumed buffer differs from a fresh freeze", round)
		}
		if !slices.IsSortedFunc(f.cells, func(a, b cell) int {
			if a.u != b.u {
				return int(a.u - b.u)
			}
			return int(a.i - b.i)
		}) {
			t.Fatalf("round %d: frozen cells not in (row, column) order", round)
		}
		before := slices.Clone(f.cells)
		if got, want := TrainFrozen(f, DefaultOptions()), Train(s, DefaultOptions()); !modelsBitEqual(got, want) {
			t.Fatalf("round %d: model from the reused buffer differs from Train", round)
		}
		if slices.Equal(f.cells, before) {
			t.Fatalf("round %d: TrainFrozen left the cells in order — the reuse test proves nothing", round)
		}
	}
}

// TestFreezeEmpty: freezing an empty matrix (into nil or into a used buffer)
// yields no cells, and training from it is Train on the empty matrix.
func TestFreezeEmpty(t *testing.T) {
	empty := NewSparse(0, 5)
	used, _ := makeLowRankSparse(10, 7, 2, 0.6, 17)
	for _, into := range []*Frozen{nil, used.Freeze(nil)} {
		f := empty.Freeze(into)
		if f.Rows != 0 || f.Cols != 5 || len(f.cells) != 0 {
			t.Fatalf("empty freeze = %dx%d with %d cells", f.Rows, f.Cols, len(f.cells))
		}
		if m := TrainFrozen(f, DefaultOptions()); m.Q.R != 5 || m.P.R != 0 {
			t.Fatalf("model of an empty freeze has shape P %d, Q %d", m.P.R, m.Q.R)
		}
	}
}
