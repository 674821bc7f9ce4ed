// Package parcapture_clean is a known-clean fixture: the sanctioned
// fan-out patterns — each task writes only its own slice element
// (submission-order merge) or purely task-local state.
package parcapture_clean

import "quasar/internal/par"

// IndexMerge is the canonical pattern: task i owns out[i].
func IndexMerge(xs []float64) []float64 {
	out := make([]float64, len(xs))
	par.ParFor(len(xs), func(i int) {
		out[i] = xs[i] * 2
	})
	return out
}

// TaskLocal declares and mutates state inside the task body.
func TaskLocal(xs []float64) []float64 {
	out := make([]float64, len(xs))
	par.ParFor(len(xs), func(i int) {
		sum := 0.0
		for _, x := range xs[:i+1] {
			sum += x
		}
		out[i] = sum
	})
	return out
}

// MapAfterMerge collects per-task results in a slice and folds them into a
// map only after the fan-out completes.
func MapAfterMerge(n int) map[int]int {
	squares := par.ParMap(n, func(i int) int { return i * i })
	m := make(map[int]int, n)
	for i, sq := range squares {
		m[i] = sq
	}
	return m
}

// NestedFieldWrite writes through task-owned struct elements.
type cell struct{ v int }

func NestedFieldWrite(cells []cell) {
	par.ParFor(len(cells), func(i int) {
		cells[i].v = i
	})
}
