// Package cf implements the collaborative-filtering machinery of Quasar's
// classification engine (paper §3.2): singular value decomposition and
// PQ-reconstruction with stochastic gradient descent over sparse
// workload-by-configuration matrices, plus fast fold-in of a new sparse row
// against an already-trained model.
package cf

import (
	"fmt"
	"slices"
)

// Dense is a row-major dense matrix.
type Dense struct {
	R, C int
	Data []float64
}

// NewDense returns an r-by-c zero matrix.
func NewDense(r, c int) *Dense {
	return &Dense{R: r, C: c, Data: make([]float64, r*c)}
}

// At returns element (i,j).
func (m *Dense) At(i, j int) float64 { return m.Data[i*m.C+j] }

// Set assigns element (i,j).
func (m *Dense) Set(i, j int, v float64) { m.Data[i*m.C+j] = v }

// Clone returns a deep copy.
func (m *Dense) Clone() *Dense {
	d := NewDense(m.R, m.C)
	copy(d.Data, m.Data)
	return d
}

// MulT returns m * other^T interpreted as (R×C) * (C×K) when other is K×C —
// used to reconstruct R = Q * P^T.
func MatMulT(q, p *Dense) *Dense {
	if q.C != p.C {
		panic(fmt.Sprintf("cf: MatMulT dims %dx%d vs %dx%d", q.R, q.C, p.R, p.C))
	}
	out := NewDense(q.R, p.R)
	for i := 0; i < q.R; i++ {
		for j := 0; j < p.R; j++ {
			s := 0.0
			for k := 0; k < q.C; k++ {
				s += q.At(i, k) * p.At(j, k)
			}
			out.Set(i, j, s)
		}
	}
	return out
}

// Sparse is a sparse matrix of observed entries, the input to
// PQ-reconstruction. Rows are workloads, columns configurations.
type Sparse struct {
	Rows, Cols int
	// rows[i] holds row i's observed entries sorted by column — already in
	// the order Freeze hands them to training, so a freeze is a copy.
	rows [][]Cell
	n    int
}

// Cell is one observed entry.
type Cell struct {
	Row, Col int32
	V        float64
}

// NewSparse returns an empty rows-by-cols sparse matrix.
func NewSparse(rows, cols int) *Sparse {
	return &Sparse{Rows: rows, Cols: cols, rows: make([][]Cell, rows)}
}

// find returns where column j is or would be in row i, and whether it is.
func (s *Sparse) find(i, j int) (int, bool) {
	return slices.BinarySearchFunc(s.rows[i], int32(j), func(c Cell, j int32) int { return int(c.Col - j) })
}

// Set records an observation; re-setting a cell overwrites it.
func (s *Sparse) Set(i, j int, v float64) {
	if i < 0 || i >= s.Rows || j < 0 || j >= s.Cols {
		panic(fmt.Sprintf("cf: Set(%d,%d) outside %dx%d", i, j, s.Rows, s.Cols))
	}
	at, ok := s.find(i, j)
	if ok {
		s.rows[i][at].V = v
		return
	}
	s.rows[i] = slices.Insert(s.rows[i], at, Cell{int32(i), int32(j), v})
	s.n++
}

// Get returns the observation at (i,j), if any.
func (s *Sparse) Get(i, j int) (float64, bool) {
	if at, ok := s.find(i, j); ok {
		return s.rows[i][at].V, true
	}
	return 0, false
}

// Row returns the observed entries of row i in column order (the live
// slice; callers must not mutate it).
func (s *Sparse) Row(i int) []Cell { return s.rows[i] }

// NNZ returns the number of observed entries.
func (s *Sparse) NNZ() int { return s.n }

// AppendRow grows the matrix by one row containing the given observations
// and returns its index. The row is sorted once, here.
func (s *Sparse) AppendRow(obs map[int]float64) int {
	u := int32(s.Rows)
	row := make([]Cell, 0, len(obs))
	for j, v := range obs {
		if j < 0 || j >= s.Cols {
			panic(fmt.Sprintf("cf: AppendRow col %d outside %d", j, s.Cols))
		}
		row = append(row, Cell{u, int32(j), v})
	}
	slices.SortFunc(row, func(a, b Cell) int { return int(a.Col - b.Col) })
	s.rows = append(s.rows, row)
	s.n += len(row)
	s.Rows++
	return s.Rows - 1
}

// Mean returns the mean of all observed entries (the µ term of the paper's
// latent-factor model), or 0 for an empty matrix. Entries are summed in
// deterministic (row, column) order so results are bit-reproducible. It
// builds the ordered cell list to do so — O(nnz) memory per call; Train
// takes µ from the list it already holds and does not call it.
func (s *Sparse) Mean() float64 { return meanOf(s.Freeze(nil).cells) }

// Frozen is a Sparse as it stood at one moment: its shape and its observed
// entries in (row, column) order — everything TrainFrozen reads, and nothing
// a later Set or AppendRow on the source can reach.
type Frozen struct {
	Rows, Cols int
	cells      []Cell
}

// Freeze captures the matrix into the given Frozen, reusing its cell buffer
// (nil allocates one), and returns it. The rows are kept sorted, so the
// capture is a copy of each row in turn and lands in (row, column) order —
// the order every float accumulation over a Sparse uses.
func (s *Sparse) Freeze(into *Frozen) *Frozen {
	if into == nil {
		into = new(Frozen)
	}
	cells := slices.Grow(into.cells[:0], s.n)
	for _, row := range s.rows {
		cells = append(cells, row...)
	}
	into.Rows, into.Cols, into.cells = s.Rows, s.Cols, cells
	return into
}

func meanOf(cells []Cell) float64 {
	if len(cells) == 0 {
		return 0
	}
	sum := 0.0
	for _, c := range cells {
		sum += c.V
	}
	return sum / float64(len(cells))
}
