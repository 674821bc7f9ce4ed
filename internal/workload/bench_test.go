package workload

import "testing"

var oracleSink float64

// BenchmarkOracleBestCompletion is the oracle target sweep a targeted batch
// arrival pays in Universe.New: a configured Hadoop job over every local
// platform, 24 framework configurations and node counts up to eight.
func BenchmarkOracleBestCompletion(b *testing.B) {
	u := testUniverse()
	w := u.New(Spec{Type: Hadoop, Family: -1, MaxNodes: 8})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		secs, _ := OracleBestCompletion(w, u.Platforms, 8)
		oracleSink += secs
	}
}
