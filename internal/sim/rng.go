package sim

import (
	"math"
	"math/rand"
	"strconv"
)

// RNG wraps a deterministic random source with the distributions the
// simulator needs. Separate named streams keep experiment components
// independent: adding draws to one stream never perturbs another.
type RNG struct {
	r *rand.Rand
}

// NewRNG returns a generator seeded with seed. Its draws are those of a
// rand.Rand over math/rand's own source; Source only defers building the
// register until a draw needs it.
func NewRNG(seed int64) *RNG {
	return &RNG{r: rand.New(NewSource(seed))}
}

// Stream derives an independent generator for the named component. The
// derivation mixes the name into the seed with an FNV-style hash, so streams
// with different names are decorrelated.
func (g *RNG) Stream(name string) *RNG {
	const (
		offset = 1469598103934665603
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= prime
	}
	// Mix with a draw from the parent so identical names under different
	// parents diverge.
	h ^= g.r.Uint64()
	return NewRNG(int64(h))
}

// Substreams derives n independent generators for the tasks of a parallel
// fan-out, named name:0 … name:n-1. Derivation happens sequentially on the
// calling goroutine in input order, so the parent's draw sequence — and
// therefore every substream — is identical no matter how many workers later
// consume them. Callers hand substream i to task i and must not share a
// substream across tasks.
func (g *RNG) Substreams(name string, n int) []*RNG {
	subs := make([]*RNG, n)
	for i := range subs {
		subs[i] = g.Stream(name + ":" + strconv.Itoa(i))
	}
	return subs
}

// Float64 returns a uniform value in [0,1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Uniform returns a uniform value in [lo,hi).
func (g *RNG) Uniform(lo, hi float64) float64 { return lo + (hi-lo)*g.r.Float64() }

// Intn returns a uniform integer in [0,n).
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Normal returns a normal draw with the given mean and standard deviation.
func (g *RNG) Normal(mean, stddev float64) float64 {
	return mean + stddev*g.r.NormFloat64()
}

// LogNormal returns exp(N(mu, sigma)).
func (g *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(g.Normal(mu, sigma))
}

// Exponential returns an exponential draw with the given mean.
func (g *RNG) Exponential(mean float64) float64 {
	return g.r.ExpFloat64() * mean
}

// Pareto returns a bounded Pareto draw with shape alpha on [lo, hi].
func (g *RNG) Pareto(alpha, lo, hi float64) float64 {
	u := g.r.Float64()
	la := math.Pow(lo, alpha)
	ha := math.Pow(hi, alpha)
	return math.Pow(-(u*ha-u*la-ha)/(ha*la), -1/alpha)
}

// Perm returns a random permutation of [0,n).
func (g *RNG) Perm(n int) []int { return g.r.Perm(n) }

// Shuffle permutes n elements using swap.
func (g *RNG) Shuffle(n int, swap func(i, j int)) { g.r.Shuffle(n, swap) }

// Bool returns true with probability p.
func (g *RNG) Bool(p float64) bool { return g.r.Float64() < p }

// Jitter returns x multiplied by a log-normal factor with the given
// coefficient of variation; used for measurement noise.
func (g *RNG) Jitter(x, cv float64) float64 {
	if cv <= 0 {
		return x
	}
	sigma := math.Sqrt(math.Log(1 + cv*cv))
	return x * g.LogNormal(-sigma*sigma/2, sigma)
}

// splitmix64 advances and mixes a 64-bit state; the standard stateless
// avalanche step (Steele et al.), strong enough to decorrelate adjacent
// seeds.
func splitmix64(state uint64) uint64 {
	state += 0x9e3779b97f4a7c15
	z := state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// HashNormal is a stateless standard-normal draw derived purely from seed
// via splitmix64 and Box-Muller. The same seed always yields the same value,
// so call sites that need "the same noise for the same bucket" (loadgen's
// per-bucket noise) get determinism without constructing a generator per
// query — a generator per query would cost three allocations and a hash of
// the bucket into a seed anyway.
func HashNormal(seed int64) float64 {
	h1 := splitmix64(uint64(seed))
	h2 := splitmix64(uint64(seed) + 0x632be59bd9b4e019)
	// Two uniforms from the top 53 bits; u1 in (0,1] so the log is finite.
	u1 := (float64(h1>>11) + 1) / (1 << 53)
	u2 := float64(h2>>11) / (1 << 53)
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// HashJitter is the stateless counterpart of Jitter: it multiplies x by a
// log-normal factor with the given coefficient of variation, derived purely
// from seed.
func HashJitter(seed int64, x, cv float64) float64 {
	if cv <= 0 {
		return x
	}
	sigma := math.Sqrt(math.Log(1 + cv*cv))
	return x * math.Exp(-sigma*sigma/2+sigma*HashNormal(seed))
}
