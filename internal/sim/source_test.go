package sim

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// edgeSeeds are the seeds at the corners of math/rand's seed fold: 0 and
// every multiple of 2³¹−1 remap to 89482311, negatives wrap, and the int64
// extremes exercise the remainder's sign.
var edgeSeeds = []int64{
	0, 1, -1, 2, lehmerMod, -lehmerMod, 2 * lehmerMod, lehmerMod - 1, lehmerMod + 1,
	-(lehmerMod - 1), math.MinInt64, math.MaxInt64, math.MinInt64 + 1, zeroSeed,
}

// lazyBoundary are the draw counts around the points where a Source changes
// how it serves draws: the first draws from the closed form, the last one
// (273) and the first from the register (274), and the register's feed (334)
// and tap (607) wrapping around.
var lazyBoundary = []int{0, 1, 272, 273, 274, 334, 335, 606, 607, 608}

// checkSourceMatches compares Source seeded with seed against math/rand's
// source over draws raw Uint64 draws. Then, once, Int63, every rand.Rand
// distribution the simulator draws through, a Shuffle of n elements and the
// draw after it; and once, from the same draws, the Shuffle straight away, so
// that the Shuffle builds the register itself.
func checkSourceMatches(t *testing.T, seed int64, draws, n int) {
	t.Helper()
	got, want := drawBoth(t, seed, draws)
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
	checkShuffle(t, seed, got, want, n)

	got, want = drawBoth(t, seed, draws)
	checkShuffle(t, seed, got, want, n)
}

// drawBoth returns Source and math/rand's source, both seeded with seed,
// after checking that their first draws raw draws agree.
func drawBoth(t *testing.T, seed int64, draws int) (*Source, rand.Source64) {
	t.Helper()
	got, want := NewSource(seed), rand.NewSource(seed).(rand.Source64)
	for k := 0; k < draws; k++ {
		if g, w := got.Uint64(), want.Uint64(); g != w {
			t.Fatalf("seed %d: Uint64 draw %d = %#x, math/rand %#x", seed, k, g, w)
		}
	}
	return got, want
}

// checkShuffle compares Shuffle of n elements on got against rand.Shuffle on
// want, and then the draw after it.
func checkShuffle(t *testing.T, seed int64, got *Source, want rand.Source64, n int) {
	t.Helper()
	gs, ws := make([]int, n), make([]int, n)
	for i := range gs {
		gs[i], ws[i] = i, i
	}
	Shuffle(got, gs)
	rand.New(want).Shuffle(n, func(i, j int) { ws[i], ws[j] = ws[j], ws[i] })
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
// rand.Rand distributions on top, and Shuffle at every length 0…400; then
// every draw count on the lazy boundary, each with a shuffle that draws.
func TestSourceMatchesMathRand(t *testing.T) {
	const draws = 3000
	for _, seed := range edgeSeeds {
		checkSourceMatches(t, seed, draws, 400)
	}
	seeds := rand.New(rand.NewSource(29))
	for k := 0; k < 2000; k++ {
		checkSourceMatches(t, int64(seeds.Uint64()), draws, k%401)
	}
	for _, d := range lazyBoundary {
		for k, seed := range edgeSeeds {
			checkSourceMatches(t, seed, d, 2+k)
		}
		for k := 0; k < 100; k++ {
			checkSourceMatches(t, int64(seeds.Uint64()), d, 2+k*4)
		}
	}
}

// TestSourceReseed holds Seed on a used source to math/rand's: whether the
// source is still drawing from the closed form or has built its register,
// Seed restarts the stream.
func TestSourceReseed(t *testing.T) {
	for _, used := range lazyBoundary {
		got, want := drawBoth(t, 7, used)
		got.Seed(-12345)
		want.Seed(-12345)
		for k := 0; k < 700; k++ {
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("reseeded after %d draws: draw %d = %#x, math/rand %#x", used, k, g, w)
			}
		}
	}
}

// FuzzSourceMatchesMathRand looks for a seed, stream position or shuffle
// length at which the port and math/rand part ways. Its seed corpus
// (testdata/fuzz) holds the corners of the seed fold and shuffles on either
// side of the lazy boundary.
func FuzzSourceMatchesMathRand(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, draws, n uint16) {
		checkSourceMatches(t, seed, int(draws), int(n))
	})
}

// streamDraws derives a stream from g and draws n values from it: the life
// of most streams a world mints.
func streamDraws(g *RNG, n int) {
	s := g.Stream("workload")
	for k := 0; k < n; k++ {
		drawSink += s.Float64()
	}
}

// TestStreamAllocBytes is the byte gate on minting: a stream derived with
// Stream and drawn 19 times (the mean for a Universe.New stream) allocates
// its RNG, rand.Rand and Source, and no register.
func TestStreamAllocBytes(t *testing.T) {
	const streams, budget = 2000, 128
	g := NewRNG(1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < streams; i++ {
		streamDraws(g, 19)
	}
	runtime.ReadMemStats(&after)
	if b := (after.TotalAlloc - before.TotalAlloc) / streams; b > budget {
		t.Fatalf("a stream drawn 19 times allocates %d B, budget %d B", b, budget)
	}
}

var (
	benchRNG  *RNG
	drawSink  float64
	benchInts []int
)

// BenchmarkNewRNG is the cost of minting one generator: folding the seed
// plus the rand.Rand wrapper. No register is built.
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

// BenchmarkStreamDraws is a stream's typical life: derived, then drawn 19
// times, the measured mean for Universe.New's streams.
func BenchmarkStreamDraws(b *testing.B) {
	g := NewRNG(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		streamDraws(g, 19)
	}
}

// BenchmarkShuffle is the long-stream path: one SGD epoch's shuffle of 2 000
// cells on a built register.
func BenchmarkShuffle(b *testing.B) {
	src := NewSource(1)
	benchInts = make([]int, 2000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Shuffle(src, benchInts)
	}
}
