package cf

import (
	"math"
	"slices"
	"testing"
)

// mapSparse is the storage Sparse replaced, kept as its oracle: one map per
// row from column to value.
type mapSparse struct {
	cols int
	rows []map[int]float64
}

// cells returns the oracle's entries in (row, column) order.
func (m *mapSparse) cells() []Cell {
	var out []Cell
	for u, row := range m.rows {
		lo := len(out)
		for j, v := range row {
			out = append(out, Cell{int32(u), int32(j), v})
		}
		slices.SortFunc(out[lo:], func(a, b Cell) int { return int(a.Col - b.Col) })
	}
	return out
}

// FuzzSparseMatchesMap applies a byte-coded sequence of writes and reads to
// a Sparse and to the map oracle and requires them to agree after every
// step: new and overwriting Sets, AppendRow, Get, NNZ, Freeze into a reused
// buffer (cells in (row, column) order, µ bit-equal) and a round trip
// through Export and NewSparseFrom.
func FuzzSparseMatchesMap(f *testing.F) {
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) < 2 {
			return
		}
		rows, cols := int(prog[0]%6), 1+int(prog[1]%12)
		s, o := NewSparse(rows, cols), &mapSparse{cols: cols, rows: make([]map[int]float64, rows)}
		for i := range o.rows {
			o.rows[i] = map[int]float64{}
		}
		var frozen *Frozen
		next := 2
		arg := func() int {
			if next >= len(prog) {
				return 0
			}
			next++
			return int(prog[next-1])
		}
		for next < len(prog) {
			switch op := arg() % 6; op {
			case 0: // Set: a small column range makes overwrites common
				if s.Rows == 0 {
					continue
				}
				i, j, v := arg()%s.Rows, arg()%cols, float64(int8(arg()))/4
				s.Set(i, j, v)
				o.rows[i][j] = v
			case 1: // AppendRow
				obs := map[int]float64{}
				for n := arg() % (cols + 1); n > 0; n-- {
					obs[arg()%cols] = float64(int8(arg())) / 8
				}
				if got, want := s.AppendRow(obs), len(o.rows); got != want {
					t.Fatalf("AppendRow returned row %d, want %d", got, want)
				}
				o.rows = append(o.rows, obs)
			case 2: // Get, also of absent cells
				if s.Rows == 0 {
					continue
				}
				i, j := arg()%s.Rows, arg()%cols
				got, ok := s.Get(i, j)
				want, wantOK := o.rows[i][j]
				if ok != wantOK || math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("Get(%d,%d) = %v,%v, oracle %v,%v", i, j, got, ok, want, wantOK)
				}
			case 3: // NNZ and shape
				want := 0
				for _, row := range o.rows {
					want += len(row)
				}
				if s.NNZ() != want || s.Rows != len(o.rows) || s.Cols != cols {
					t.Fatalf("%dx%d with %d cells, oracle %dx%d with %d", s.Rows, s.Cols, s.NNZ(), len(o.rows), cols, want)
				}
			case 4: // Freeze into the buffer of the last one
				frozen = s.Freeze(frozen)
				want := o.cells()
				if frozen.Rows != len(o.rows) || frozen.Cols != cols || !slices.Equal(frozen.cells, want) {
					t.Fatalf("freeze %v, oracle %v", frozen.cells, want)
				}
				if math.Float64bits(s.Mean()) != math.Float64bits(meanOf(want)) {
					t.Fatalf("Mean %v, oracle %v", s.Mean(), meanOf(want))
				}
			case 5: // snapshot round trip
				exp := s.Export()
				if len(exp) != len(o.rows) {
					t.Fatalf("Export has %d rows, oracle %d", len(exp), len(o.rows))
				}
				for i, row := range exp {
					if !mapsBitEqual(row, o.rows[i]) {
						t.Fatalf("Export row %d = %v, oracle %v", i, row, o.rows[i])
					}
				}
				s = NewSparseFrom(cols, exp)
			}
		}
		for i := 0; i < s.Rows; i++ {
			row := s.Row(i)
			if len(row) != len(o.rows[i]) {
				t.Fatalf("row %d has %d cells, oracle %d", i, len(row), len(o.rows[i]))
			}
			for n, c := range row {
				if v, ok := o.rows[i][int(c.Col)]; int(c.Row) != i || !ok || math.Float64bits(v) != math.Float64bits(c.V) ||
					(n > 0 && row[n-1].Col >= c.Col) {
					t.Fatalf("row %d: %v, oracle %v", i, row, o.rows[i])
				}
			}
		}
	})
}

func mapsBitEqual(a, b map[int]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for j, v := range a {
		if w, ok := b[j]; !ok || math.Float64bits(v) != math.Float64bits(w) {
			return false
		}
	}
	return true
}
