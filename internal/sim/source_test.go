package sim

import (
	"math"
	"math/rand"
	"testing"
)

// edgeSeeds are the seeds at the corners of math/rand's seed fold: 0 and
// every multiple of 2³¹−1 remap to 89482311, negatives wrap, and the int64
// extremes exercise the remainder's sign.
var edgeSeeds = []int64{
	0, 1, -1, 2, lehmerMod, -lehmerMod, 2 * lehmerMod, lehmerMod - 1, lehmerMod + 1,
	-(lehmerMod - 1), math.MinInt64, math.MaxInt64, math.MinInt64 + 1, zeroSeed,
}

// checkSourceMatches compares Source seeded with seed against math/rand's
// source: the raw Uint64 stream, every rand.Rand distribution the simulator
// draws through, and a Shuffle of n elements with the draw after it.
func checkSourceMatches(t *testing.T, seed int64, draws, n int) {
	t.Helper()
	got, want := NewSource(seed), rand.NewSource(seed).(rand.Source64)
	for k := 0; k < draws; k++ {
		if g, w := got.Uint64(), want.Uint64(); g != w {
			t.Fatalf("seed %d: Uint64 draw %d = %#x, math/rand %#x", seed, k, g, w)
		}
	}
	if g, w := got.Int63(), want.Int63(); g != w {
		t.Fatalf("seed %d: Int63 after %d draws = %d, math/rand %d", seed, draws, g, w)
	}

	gr, wr := rand.New(got), rand.New(want)
	for k := 0; k < 50; k++ {
		if g, w := gr.NormFloat64(), wr.NormFloat64(); math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("seed %d: NormFloat64 %d = %v, math/rand %v", seed, k, g, w)
		}
		if g, w := gr.ExpFloat64(), wr.ExpFloat64(); math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("seed %d: ExpFloat64 %d = %v, math/rand %v", seed, k, g, w)
		}
		if g, w := gr.Intn(k+1), wr.Intn(k+1); g != w {
			t.Fatalf("seed %d: Intn(%d) = %d, math/rand %d", seed, k+1, g, w)
		}
	}
	gp, wp := gr.Perm(37), wr.Perm(37)
	for i := range gp {
		if gp[i] != wp[i] {
			t.Fatalf("seed %d: Perm(37)[%d] = %d, math/rand %d", seed, i, gp[i], wp[i])
		}
	}

	gs, ws := make([]int, n), make([]int, n)
	for i := range gs {
		gs[i], ws[i] = i, i
	}
	Shuffle(got, gs)
	wr.Shuffle(n, func(i, j int) { ws[i], ws[j] = ws[j], ws[i] })
	for i := range gs {
		if gs[i] != ws[i] {
			t.Fatalf("seed %d: Shuffle(%d)[%d] = %d, rand.Shuffle %d", seed, n, i, gs[i], ws[i])
		}
	}
	if g, w := got.Uint64(), want.Uint64(); g != w {
		t.Fatalf("seed %d: draw after Shuffle(%d) = %#x, math/rand %#x", seed, n, g, w)
	}
}

// TestSourceMatchesMathRand holds the port to the standard library as its
// oracle: the edge seeds and 2 000 random ones, 3 000 raw draws each, the
// rand.Rand distributions on top, and Shuffle at every length 0…400.
func TestSourceMatchesMathRand(t *testing.T) {
	const draws = 3000
	for _, seed := range edgeSeeds {
		checkSourceMatches(t, seed, draws, 400)
	}
	seeds := rand.New(rand.NewSource(29))
	for k := 0; k < 2000; k++ {
		checkSourceMatches(t, int64(seeds.Uint64()), draws, k%401)
	}
}

// FuzzSourceMatchesMathRand looks for a seed, stream position or shuffle
// length at which the port and math/rand part ways. Its seed corpus
// (testdata/fuzz) holds the corners of the seed fold.
func FuzzSourceMatchesMathRand(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, draws, n uint16) {
		checkSourceMatches(t, seed, int(draws), int(n))
	})
}

var benchRNG *RNG

// BenchmarkNewRNG is the cost of minting one generator: the seeding of a
// 607-word register plus the rand.Rand wrapper.
func BenchmarkNewRNG(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchRNG = NewRNG(int64(i))
	}
}

// BenchmarkStream is the cost of deriving a named stream from a parent, the
// way every component of a world gets its generator.
func BenchmarkStream(b *testing.B) {
	g := NewRNG(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchRNG = g.Stream("workload")
	}
}
