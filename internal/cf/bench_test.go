package cf

import (
	"fmt"
	"testing"
)

// libraryShaped builds a matrix the way the classifier grows one: the first
// dense rows are the offline-profiled library, every later row an arrival
// with three observed cells.
func libraryShaped(rows, cols, dense int, seed int64) *Sparse {
	truth := lowRank(rows, cols, 3, seed)
	s := NewSparse(rows, cols)
	for u := 0; u < rows; u++ {
		for i := 0; i < cols; i++ {
			if u < dense || i == cols-1 || i == (u*7)%(cols-1) || i == (u*13+5)%(cols-1) {
				s.Set(u, i, truth.At(u, i))
			}
		}
	}
	return s
}

var trainSink *Model

// BenchmarkTrain: one retrain at the shapes the engine hits. 231x81 is the
// scale-up matrix at the end of a simulated day, 538x81 the same matrix
// after more than twice the arrivals (the cost must stay flat in rows),
// 12x81 a small library (short-fat: fewer rows than columns), 26x81 the
// sim_scale_churn library with every row dense, 30x560 the exhaustive joint
// classifier's library.
func BenchmarkTrain(b *testing.B) {
	for _, sh := range []struct{ rows, cols, dense int }{
		{12, 81, 12}, {26, 81, 26}, {231, 81, 21}, {538, 81, 21}, {30, 560, 30},
	} {
		s := libraryShaped(sh.rows, sh.cols, sh.dense, 7)
		b.Run(fmt.Sprintf("%dx%d", sh.rows, sh.cols), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				trainSink = Train(s, DefaultOptions())
			}
		})
	}
}
