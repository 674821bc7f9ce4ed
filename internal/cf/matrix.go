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
	// entries[i] maps column -> value for row i.
	entries []map[int]float64
	n       int
}

// NewSparse returns an empty rows-by-cols sparse matrix.
func NewSparse(rows, cols int) *Sparse {
	e := make([]map[int]float64, rows)
	for i := range e {
		e[i] = make(map[int]float64)
	}
	return &Sparse{Rows: rows, Cols: cols, entries: e}
}

// Set records an observation; re-setting a cell overwrites it.
func (s *Sparse) Set(i, j int, v float64) {
	if i < 0 || i >= s.Rows || j < 0 || j >= s.Cols {
		panic(fmt.Sprintf("cf: Set(%d,%d) outside %dx%d", i, j, s.Rows, s.Cols))
	}
	if _, ok := s.entries[i][j]; !ok {
		s.n++
	}
	s.entries[i][j] = v
}

// Get returns the observation at (i,j), if any.
func (s *Sparse) Get(i, j int) (float64, bool) {
	v, ok := s.entries[i][j]
	return v, ok
}

// Row returns the observed entries of row i (the live map; callers must not
// mutate it).
func (s *Sparse) Row(i int) map[int]float64 { return s.entries[i] }

// NNZ returns the number of observed entries.
func (s *Sparse) NNZ() int { return s.n }

// Density returns NNZ / (Rows*Cols).
func (s *Sparse) Density() float64 {
	if s.Rows*s.Cols == 0 {
		return 0
	}
	return float64(s.n) / float64(s.Rows*s.Cols)
}

// AppendRow grows the matrix by one row containing the given observations
// and returns its index.
func (s *Sparse) AppendRow(obs map[int]float64) int {
	row := make(map[int]float64, len(obs))
	for j, v := range obs {
		if j < 0 || j >= s.Cols {
			panic(fmt.Sprintf("cf: AppendRow col %d outside %d", j, s.Cols))
		}
		row[j] = v
		s.n++
	}
	s.entries = append(s.entries, row)
	s.Rows++
	return s.Rows - 1
}

// Mean returns the mean of all observed entries (the µ term of the paper's
// latent-factor model), or 0 for an empty matrix. Entries are summed in
// deterministic (row, column) order so results are bit-reproducible. It
// builds the ordered cell list to do so — O(nnz) memory per call; Train
// takes µ from the list it already holds and does not call it.
func (s *Sparse) Mean() float64 { return meanOf(s.Freeze(nil).cells) }

// cell is one observed entry.
type cell struct {
	u, i int32
	v    float64
}

// Frozen is a Sparse as it stood at one moment: its shape and its observed
// entries in (row, column) order — everything TrainFrozen reads, and nothing
// a later Set or AppendRow on the source can reach.
type Frozen struct {
	Rows, Cols int
	cells      []cell
}

// Freeze captures the matrix into the given Frozen, reusing its cell buffer
// (nil allocates one), and returns it. The cells land in (row, column) order
// — the order every float accumulation over a Sparse uses, so no result
// depends on map iteration. Each row's cells are sorted in place: no global
// sort.
func (s *Sparse) Freeze(into *Frozen) *Frozen {
	if into == nil {
		into = new(Frozen) //lint:allow(hotalloc) first freeze only: callers on the hot path pass the Frozen they keep
	}
	cells := slices.Grow(into.cells[:0], s.n)
	for u, row := range s.entries {
		lo := len(cells)
		for i, v := range row { //lint:allow(hotalloc) a row is stored as a map; the per-row sort below removes the iteration order, and a freeze runs once per retrain point, not per write
			cells = append(cells, cell{int32(u), int32(i), v}) //lint:allow(hotalloc) within the capacity slices.Grow reserved above
		}
		slices.SortFunc(cells[lo:], func(a, b cell) int { return int(a.i - b.i) })
	}
	into.Rows, into.Cols, into.cells = s.Rows, s.Cols, cells
	return into
}

func meanOf(cells []cell) float64 {
	if len(cells) == 0 {
		return 0
	}
	sum := 0.0
	for _, c := range cells {
		sum += c.v
	}
	return sum / float64(len(cells))
}
