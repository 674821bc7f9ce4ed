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

// trainShapes are the shapes BenchmarkTrain fits, as (rows, cols, dense
// rows) of libraryShaped. 231x81 is the scale-up matrix at the end of a
// simulated day, 538x81 the same matrix after more than twice the arrivals
// (the cost must stay flat in rows), 12x81 a small library (short-fat: fewer
// rows than columns), 26x81 the sim_scale_churn library with every row
// dense, 110x10 the heterogeneity matrix of a simulated day (a row per
// workload, a column per platform), 30x560 the exhaustive joint classifier's
// library.
var trainShapes = []struct{ rows, cols, dense int }{
	{12, 81, 12}, {26, 81, 26}, {110, 10, 110}, {231, 81, 21}, {538, 81, 21}, {30, 560, 30},
}

// BenchmarkTrain: one retrain at the shapes the engine hits.
func BenchmarkTrain(b *testing.B) {
	for _, sh := range trainShapes {
		s := libraryShaped(sh.rows, sh.cols, sh.dense, 7)
		b.Run(fmt.Sprintf("%dx%d", sh.rows, sh.cols), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				trainSink = Train(s, DefaultOptions())
			}
		})
	}
}

// BenchmarkFreeze: the copy half of a retrain point (the other half is the
// fit, BenchmarkTrain) — the matrix captured into the axis's reused buffer —
// at the heterogeneity shape and at the end-of-day scale-up shape.
func BenchmarkFreeze(b *testing.B) {
	for _, sh := range []struct{ rows, cols, dense int }{{110, 10, 110}, {231, 81, 21}} {
		s := libraryShaped(sh.rows, sh.cols, sh.dense, 7)
		f := s.Freeze(nil)
		b.Run(fmt.Sprintf("%dx%d", sh.rows, sh.cols), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				f = s.Freeze(f)
			}
		})
	}
}

var topKSink *SVD

// BenchmarkTopK: the fit's seed alone — Gram build, eigen-solve and the U
// pass — at the end-of-day scale-up shape.
func BenchmarkTopK(b *testing.B) {
	f := libraryShaped(231, 81, 21, 7).Freeze(nil)
	mu, k := meanOf(f.cells), latentK
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		topKSink = topK(f.cells, f.Rows, f.Cols, mu, k)
	}
}

var foldInSink []float64

// BenchmarkFoldIn: one arrival's fold-in — three observed cells against the
// end-of-day scale-up model.
func BenchmarkFoldIn(b *testing.B) {
	m := Train(libraryShaped(231, 81, 21, 7), DefaultOptions())
	obs := map[int]float64{3: 0.2, 40: -0.4, 80: 0.1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		foldInSink = m.FoldIn(obs)
	}
}
