package cf

// Snapshot support: a Sparse matrix can be exported to plain maps (JSON-
// friendly) and rebuilt, so a hot-standby cluster manager can mirror the
// classification state (§4.4 fault tolerance).

// Export returns the observed entries row by row. The maps are copies.
func (s *Sparse) Export() []map[int]float64 {
	out := make([]map[int]float64, s.Rows)
	for i, row := range s.rows {
		cp := make(map[int]float64, len(row))
		for _, c := range row {
			cp[int(c.Col)] = c.V
		}
		out[i] = cp
	}
	return out
}

// NewSparseFrom rebuilds a sparse matrix from exported rows.
func NewSparseFrom(cols int, rows []map[int]float64) *Sparse {
	s := NewSparse(0, cols)
	for _, row := range rows {
		s.AppendRow(row)
	}
	return s
}
