package cf

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// trainReference is the implementation Train replaced, kept verbatim as the
// oracle: a full dense SVD of the mean-imputed matrix for the seed, a global
// sort of the entries, and an SGD loop through Dense.At/Set. The SGD loop
// also records where it stopped (Model.Epochs, Model.Rose), which changes no
// arithmetic.
func trainReference(s *Sparse, opts Options) *Model {
	k := latentK
	if k > s.Cols {
		k = s.Cols
	}
	if k > s.Rows {
		k = s.Rows
	}
	if k < 1 {
		k = 1
	}
	m := &Model{
		K:  k,
		Mu: s.Mean(),
		BU: make([]float64, s.Rows),
		BI: make([]float64, s.Cols),
		P:  NewDense(s.Rows, k),
		Q:  NewDense(s.Cols, k),
	}
	referenceInit(m, s)
	referenceSGD(m, s, opts)
	return m
}

func referenceInit(m *Model, s *Sparse) {
	if s.Rows == 0 || s.Cols == 0 {
		return
	}
	dense := NewDense(s.Rows, s.Cols)
	for u := 0; u < s.Rows; u++ {
		for i := 0; i < s.Cols; i++ {
			if v, ok := s.Get(u, i); ok {
				dense.Set(u, i, v-m.Mu)
			}
		}
	}
	svd := ComputeSVD(dense).Truncate(m.K)
	for u := 0; u < s.Rows; u++ {
		for f := 0; f < m.K && f < len(svd.S); f++ {
			m.P.Set(u, f, svd.U.At(u, f)*math.Sqrt(svd.S[f]))
		}
	}
	for i := 0; i < s.Cols; i++ {
		for f := 0; f < m.K && f < len(svd.S); f++ {
			m.Q.Set(i, f, svd.V.At(i, f)*math.Sqrt(svd.S[f]))
		}
	}
}

func referenceSGD(m *Model, s *Sparse, opts Options) {
	type obsEntry struct {
		u, i int
		v    float64
	}
	var entries []obsEntry
	for u := 0; u < s.Rows; u++ {
		for _, c := range s.Row(u) {
			entries = append(entries, obsEntry{u, int(c.Col), c.V})
		}
	}
	if len(entries) == 0 {
		return
	}
	sort.Slice(entries, func(a, b int) bool {
		if entries[a].u != entries[b].u {
			return entries[a].u < entries[b].u
		}
		return entries[a].i < entries[b].i
	})
	rng := rand.New(rand.NewSource(shuffleSeed))
	k := m.K
	prevRMSE := math.Inf(1)
	for epoch := 0; epoch < opts.Epochs; epoch++ {
		rng.Shuffle(len(entries), func(a, b int) { entries[a], entries[b] = entries[b], entries[a] })
		sse := 0.0
		for _, e := range entries {
			pred := m.Predict(e.u, e.i)
			err := e.v - pred
			sse += err * err
			m.BU[e.u] += eta * (err - lambda*m.BU[e.u])
			m.BI[e.i] += eta * (err - lambda*m.BI[e.i])
			for f := 0; f < k; f++ {
				pu := m.P.At(e.u, f)
				qi := m.Q.At(e.i, f)
				m.P.Set(e.u, f, pu+eta*(err*qi-lambda*pu))
				m.Q.Set(e.i, f, qi+eta*(err*pu-lambda*qi))
			}
		}
		rmse := math.Sqrt(sse / float64(len(entries)))
		m.Epochs = epoch + 1
		if prevRMSE-rmse < stopTol*prevRMSE {
			m.Rose = rmse > prevRMSE
			break
		}
		prevRMSE = rmse
	}
}

// trainFixtures are the matrices the pq tests train on, plus the shapes the
// classifier really sees: a short-fat library and a tall one whose later
// rows hold two entries each.
func trainFixtures() map[string]*Sparse {
	fx := map[string]*Sparse{}
	add := func(name string, rows, cols, rank int, density float64, seed int64) {
		fx[name], _ = makeLowRankSparse(rows, cols, rank, density, seed)
	}
	add("30x20", 30, 20, 3, 0.5, 11)
	add("40x25", 40, 25, 3, 0.5, 13)
	add("10x7", 10, 7, 2, 0.6, 17)
	add("15x10", 15, 10, 2, 0.5, 31)
	add("30x15", 30, 15, 3, 0.7, 37)
	add("12x81", 12, 81, 3, 1.0, 41)
	tall, _ := makeLowRankSparse(231, 81, 3, 1.0, 43)
	lib := NewSparse(231, 81)
	for u := 0; u < 231; u++ {
		for _, c := range tall.Row(u) {
			if i := int(c.Col); u < 21 || i == 80 || i == (u*7)%80 {
				lib.Set(u, i, c.V)
			}
		}
	}
	fx["231x81-library"] = lib
	one := NewSparse(5, 1)
	for i := 0; i < 5; i++ {
		one.Set(i, 0, float64(i))
	}
	fx["5x1"] = one
	fx["empty"] = NewSparse(5, 5)
	return fx
}

// clampFixtures are matrices with fewer than latentK rows or columns, the
// shapes of an axis's first fits (its first fit runs on one row): the fit
// clamps K to 1, 2 and 3 and takes the general SGD loop, not sgd4. They
// sit beside trainFixtures because TestTrainPinnedDigests pins exactly
// trainFixtures' set.
func clampFixtures() map[string]*Sparse {
	fx := map[string]*Sparse{}
	fx["1x81"], _ = makeLowRankSparse(1, 81, 1, 0.05, 47)
	fx["2x81"], _ = makeLowRankSparse(2, 81, 2, 0.05, 53)
	fx["3x10"], _ = makeLowRankSparse(3, 10, 2, 0.6, 59)
	return fx
}

func modelsBitEqual(a, b *Model) bool {
	eq := func(x, y []float64) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
				return false
			}
		}
		return true
	}
	return a.K == b.K && math.Float64bits(a.Mu) == math.Float64bits(b.Mu) &&
		eq(a.BU, b.BU) && eq(a.BI, b.BI) && eq(a.P.Data, b.P.Data) && eq(a.Q.Data, b.Q.Data)
}

// TestSGDLoopBitIdenticalToReference: from the same seed factors, the flat
// SGD loop over the row-ordered entry list lands on exactly the reference
// loop's model — same entry order, same shuffle draws, same arithmetic.
// K = 4 takes the unrolled kernel; a matrix with fewer than four rows or
// columns clamps K and takes the general loop (5x1 and the clamp fixtures).
// Both are held to the reference, and so is where each stops: at the
// default cap and at a 3-epoch cap that binds.
func TestSGDLoopBitIdenticalToReference(t *testing.T) {
	fixtures := trainFixtures()
	for name, s := range clampFixtures() {
		fixtures[name] = s
	}
	general := 0
	for name, s := range fixtures {
		for _, epochs := range []int{DefaultOptions().Epochs, 3} {
			opts := Options{Epochs: epochs}
			want := trainReference(s, opts)
			if want.K < latentK && s.NNZ() > 0 {
				general++
			}

			got := &Model{K: want.K, Mu: s.Mean(), BU: make([]float64, s.Rows), BI: make([]float64, s.Cols),
				P: NewDense(s.Rows, want.K), Q: NewDense(s.Cols, want.K)}
			referenceInit(got, s)
			got.sgd(s.Freeze(nil).cells, opts)
			if !modelsBitEqual(got, want) {
				t.Errorf("%s K=%d cap=%d: flat SGD loop diverged from the reference loop", name, want.K, epochs)
			}
			if got.Epochs != want.Epochs || got.Rose != want.Rose {
				t.Errorf("%s K=%d cap=%d: stopped after %d epochs (rose %v), reference after %d (rose %v)",
					name, want.K, epochs, got.Epochs, got.Rose, want.Epochs, want.Rose)
			}
		}
	}
	if general < 8 {
		t.Fatalf("only %d fits took the general loop; the clamp fixtures no longer clamp K", general)
	}
}

// modelDigest is the SHA-256 of the model's float bits: µ, then BU, BI, P
// and Q in storage order, each as 8 little-endian bytes.
func modelDigest(m *Model) string {
	h := sha256.New()
	var b [8]byte
	for _, xs := range [][]float64{{m.Mu}, m.BU, m.BI, m.P.Data, m.Q.Data} {
		for _, x := range xs {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestTrainPinnedDigests pins Train — the entry order a freeze hands to
// training, the Gram-side seed (topK, symEig) and the SGD loop — to the bit
// on every fixture and every BenchmarkTrain shape. The digests were taken
// from the implementation before rows were stored sorted: a change to any
// of the three that moves one bit of one fitted model fails here.
func TestTrainPinnedDigests(t *testing.T) {
	want := map[string]string{
		"10x7":           "62ab5c12a4071e8d9f0dcd04acc4a84aab0ddd024d118692e89ec8dc52c5d0ad",
		"12x81":          "1999b13b436b9c085190df4344058d94c46f12989a2dbeb22919d0091fa3d5ba",
		"15x10":          "689c04286e9eaab58a6ffcf15b1e57657f012b3631ca980d83f022533f76e0dd",
		"231x81-library": "4c704c110eac244987178df73ea790d74401986ad82112fa1fa16d6c4a64d2f6",
		"30x15":          "b75ed3a0178dba7d1b3be7b479abdb074b82ea68b6ac494571c905463a77a995",
		"30x20":          "cfcbb1408444b1429533c601b684dbc5340bdf78f3ba7584baf8e906069ecb8e",
		"40x25":          "53ba1ac5902853d61f150cfb3c58fa6b0f4a7a131d7191bfcffef3f47ba29f23",
		"5x1":            "8d0f85f4a1c58ea049d35f301c8f6146a5396f1cd574cdad9986ddd64ede8412",
		"empty":          "c76903cde8580d1c809ac5352aab33af5a310ad05126294d66e06db880c463ed",
		"bench/12x81":    "876e7af2cce53f1026da4fc759c344699a0deab04ce016c263ef775d9e87c5e1",
		"bench/26x81":    "022743c6cd199ae286b6d1d48e27aeddde94a20228aa3e5f216402c8ecbdf0fe",
		"bench/110x10":   "d8ee5e308e2c8e41c616abdee4310aee305552deef3af2210a18063a37207e60",
		"bench/231x81":   "668e5ef7727bb4b127337ad9399fc002f8287de12c1770c0260f61e5e4ea483c",
		"bench/538x81":   "8c7b51a0e9a04b39e0bf8f8990a3015936b85902e4248d31264221f47f3a61cb",
		"bench/30x560":   "f4c8dea3d375c6f1af52d1aafeaef0cf83391ef5185285cc0d2ebb425f68a4d0",
	}
	got := map[string]*Sparse{}
	for name, s := range trainFixtures() {
		got[name] = s
	}
	for _, sh := range trainShapes {
		got[fmt.Sprintf("bench/%dx%d", sh.rows, sh.cols)] = libraryShaped(sh.rows, sh.cols, sh.dense, 7)
	}
	if len(got) != len(want) {
		t.Fatalf("%d matrices, %d pinned digests", len(got), len(want))
	}
	for name, s := range got {
		if d := modelDigest(Train(s, DefaultOptions())); d != want[name] {
			t.Errorf("%s: model digest %s, pinned %s", name, d, want[name])
		}
	}
}

// TestRMSEIsFreezeOrderSum: RMSE sums the squared errors in (row, column)
// order — the order of a freeze — so it is one fixed float, call after call.
func TestRMSEIsFreezeOrderSum(t *testing.T) {
	for name, s := range trainFixtures() {
		m := Train(s, DefaultOptions())
		sse, cells := 0.0, s.Freeze(nil).cells
		for _, c := range cells {
			d := c.V - m.Predict(int(c.Row), int(c.Col))
			sse += d * d
		}
		want := 0.0
		if len(cells) > 0 {
			want = math.Sqrt(sse / float64(len(cells)))
		}
		for call := 0; call < 20; call++ {
			if got := m.RMSE(s); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s call %d: RMSE %v, freeze-order sum %v", name, call, got, want)
			}
		}
	}
}

// TestTrainMatchesReference: Train seeds SGD from the Gram-side top-K
// triplets instead of a full dense SVD, which moves low-order digits of the
// seed only — the fitted model must be as good as the reference's.
func TestTrainMatchesReference(t *testing.T) {
	for name, s := range trainFixtures() {
		got, want := Train(s, DefaultOptions()), trainReference(s, DefaultOptions())
		if d := math.Abs(got.RMSE(s) - want.RMSE(s)); d > 1e-6 {
			t.Errorf("%s: RMSE %v vs reference %v (diff %g)", name, got.RMSE(s), want.RMSE(s), d)
		}
		if again := Train(s, DefaultOptions()); !modelsBitEqual(got, again) {
			t.Errorf("%s: Train twice on the same matrix is not bit-equal", name)
		}
	}
}

// foldInReference is FoldIn as it was before the normal equations moved
// into fixed arrays, kept verbatim as the oracle: a [][]float64 system, the
// observed keys sorted, one feature slice per cell, and solveReference.
func foldInReference(m *Model, obs map[int]float64) []float64 {
	k := m.K
	valid := 0
	for i := range obs {
		if i >= 0 && i < m.Q.R {
			valid++
		}
	}
	dim := k + 1
	a := make([][]float64, dim)
	for i := range a {
		a[i] = make([]float64, dim)
		a[i][i] = lambda * float64(max(1, valid))
	}
	b := make([]float64, dim)
	keys := make([]int, 0, len(obs))
	for i := range obs {
		keys = append(keys, i)
	}
	sort.Ints(keys)
	for _, i := range keys {
		v := obs[i]
		if i < 0 || i >= m.Q.R {
			continue
		}
		x := make([]float64, dim)
		x[0] = 1
		for f := 0; f < k; f++ {
			x[f+1] = m.Q.At(i, f)
		}
		y := v - m.Mu - m.BI[i]
		for r := 0; r < dim; r++ {
			for c := 0; c < dim; c++ {
				a[r][c] += x[r] * x[c]
			}
			b[r] += x[r] * y
		}
	}
	sol := solveReference(a, b)
	bu, p := sol[0], sol[1:]
	out := make([]float64, m.Q.R)
	for i := range out {
		s := m.Mu + bu + m.BI[i]
		for f := 0; f < k; f++ {
			s += p[f] * m.Q.At(i, f)
		}
		out[i] = s
	}
	return out
}

// solveReference is solve over slices, as foldInReference called it.
func solveReference(a [][]float64, b []float64) []float64 {
	n := len(b)
	for col := 0; col < n; col++ {
		piv := col
		for r := col + 1; r < n; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[piv][col]) {
				piv = r
			}
		}
		a[col], a[piv] = a[piv], a[col]
		b[col], b[piv] = b[piv], b[col]
		d := a[col][col]
		if d == 0 {
			continue
		}
		for r := col + 1; r < n; r++ {
			f := a[r][col] / d
			if f == 0 {
				continue
			}
			for c := col; c < n; c++ {
				a[r][c] -= f * a[col][c]
			}
			b[r] -= f * b[col]
		}
	}
	x := make([]float64, n)
	for r := n - 1; r >= 0; r-- {
		s := b[r]
		for c := r + 1; c < n; c++ {
			s -= a[r][c] * x[c]
		}
		if a[r][r] != 0 {
			x[r] = s / a[r][r]
		}
	}
	return x
}

// TestFoldInMatchesSortedKeyReference holds FoldIn to the sorted-key
// reference bit for bit on models of every K (the clamp fixtures and 5x1
// fold in with K < latentK), over nil and empty maps and seeded random
// observation maps whose keys include negatives and columns ≥ Cols.
func TestFoldInMatchesSortedKeyReference(t *testing.T) {
	fixtures := trainFixtures()
	for name, s := range clampFixtures() {
		fixtures[name] = s
	}
	names := make([]string, 0, len(fixtures))
	for name := range fixtures {
		names = append(names, name)
	}
	sort.Strings(names)
	rng := rand.New(rand.NewSource(61))
	ks := map[int]bool{}
	for _, name := range names {
		m := Train(fixtures[name], DefaultOptions())
		ks[m.K] = true
		maps := []map[int]float64{nil, {}}
		for n := 0; n < 60; n++ {
			obs := map[int]float64{}
			for size := rng.Intn(9); len(obs) < size; {
				obs[rng.Intn(m.Q.R+8)-4] = rng.NormFloat64()
			}
			maps = append(maps, obs)
		}
		for n, obs := range maps {
			got, want := m.FoldIn(obs), foldInReference(m, obs)
			if len(got) != len(want) {
				t.Fatalf("%s map %d: %d columns, reference %d", name, n, len(got), len(want))
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s K=%d map %d %v: column %d = %v, reference %v", name, m.K, n, obs, i, got[i], want[i])
				}
			}
		}
	}
	if len(ks) < 3 {
		t.Fatalf("models covered K ∈ %v; the fixtures no longer clamp K", ks)
	}
}
