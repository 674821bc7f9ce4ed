package workload

import (
	"fmt"
	"testing"
)

var oracleSink float64

// BenchmarkOracleBestCompletion is the oracle target sweep a targeted batch
// arrival pays in Universe.New: a configured Hadoop job over every local
// platform and 24 framework configurations, with node counts up to eight
// (Universe.New's default) and up to the grid's cap of 100.
func BenchmarkOracleBestCompletion(b *testing.B) {
	for _, maxNodes := range []int{8, 100} {
		b.Run(fmt.Sprintf("max_nodes=%d", maxNodes), func(b *testing.B) {
			u := testUniverse()
			w := u.New(Spec{Type: Hadoop, Family: -1, MaxNodes: maxNodes})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				secs, _ := OracleBestCompletion(w, u.Platforms, maxNodes)
				oracleSink += secs
			}
		})
	}
}

// BenchmarkUniverseNew is one arrival's instance generation: its random
// streams, genome and (unless best-effort) the oracle-derived target. The
// first three cases are the three target derivations: the configured-job
// sweep, a service's capacity sweep and a single node's best rate. The
// fourth derives none: a best-effort single-node job, most of
// sim_scale_churn's arrivals, pays only for its instance.
func BenchmarkUniverseNew(b *testing.B) {
	for _, bc := range []struct {
		name string
		spec Spec
	}{
		{"hadoop", Spec{Type: Hadoop, Family: -1}},
		{"service", Spec{Type: Memcached, Family: -1}},
		{"single_node", Spec{Type: SingleNode, Family: -1}},
		{"single_node_best_effort", Spec{Type: SingleNode, Family: -1, BestEffort: true}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			u := testUniverse()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w := u.New(bc.spec)
				oracleSink += w.Genome.Work
			}
		})
	}
}
