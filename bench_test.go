package quasar_test

import (
	"io"
	"testing"

	"quasar/internal/experiments"
)

// BenchmarkArtifacts times every table, figure and study of the paper's
// evaluation at the paper-scale configuration quasar-bench prints, one
// sub-benchmark per catalogue name (BenchmarkArtifacts/fig11, …). Each
// iteration builds a fresh catalogue, so a view of a shared run (table3,
// fig7, fig10) times that run too. An artifact whose run fails or misses a
// part fails its sub-benchmark.
func BenchmarkArtifacts(b *testing.B) {
	for i, a := range experiments.Artifacts() {
		b.Run(a.Name, func(b *testing.B) {
			for range b.N {
				if err := experiments.Artifacts()[i].Print(io.Discard); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
