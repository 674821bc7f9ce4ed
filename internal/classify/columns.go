// Package classify implements Quasar's classification engine (§3.2): four
// parallel collaborative-filtering classifications — scale-up, scale-out,
// heterogeneity, and interference (tolerated and caused) — plus the single
// exhaustive joint classification used as a comparison point in Table 2 and
// Figure 3.
//
// Each classification maintains a workload-by-configuration matrix. Rows
// accumulate as workloads are profiled; a small offline-profiled library
// seeds the matrices with dense rows. An arriving workload contributes a
// few profiling samples per axis; fold-in against the trained latent-factor
// model reconstructs its full row in milliseconds.
package classify

import (
	"fmt"
	"math"

	"quasar/internal/cluster"
)

// ScaleUpCol is one quantized scale-up configuration: cores and memory on
// the profiling (highest-end) platform. Framework parameters are implied:
// configured workloads are profiled with the tuned configuration for the
// column's cores and memory (see TunedConfig).
type ScaleUpCol struct {
	Cores    int
	MemoryGB float64
}

var coreGrid = [...]int{1, 2, 4, 6, 8, 12, 16, 20, 24, 32}
var memGrid = [...]float64{1, 2, 4, 8, 12, 16, 24, 32, 48, 64}

// ScaleUpColumns returns the quantized scale-up grid for the given
// profiling platform ("we quantize the vectors to integer multiples of
// cores and blocks of memory", §3.2).
func ScaleUpColumns(p *cluster.Platform) []ScaleUpCol {
	var out []ScaleUpCol
	for _, c := range coreGrid {
		if c > p.Cores {
			continue
		}
		for _, m := range memGrid {
			if m > p.MemoryGB {
				continue
			}
			out = append(out, ScaleUpCol{Cores: c, MemoryGB: m})
		}
	}
	return out
}

// scaleUpGrid finds the scale-up column nearest to an allocation
// (log-distance in both dimensions). The columns are the product
// cores × mems, core-major, so the distance to column (ci, mi) is a per-core
// term plus a per-memory term: one |log| per distinct value, not two per
// column, and the core terms — a function of an integer — are tabulated.
// Same expressions, same order of addition, same strict < as a scan over
// the columns: the index is bit-for-bit the scan's.
type scaleUpGrid struct {
	cores, mems []float64
	coreDist    [][]float64 // [a][ci] = |log(cores[ci]/a)|, 1 <= a < len
}

// newScaleUpGrid builds the lookup for ScaleUpColumns(p), tabulating
// allocations of up to p.Cores cores (the profiling platform has the most).
func newScaleUpGrid(p *cluster.Platform) *scaleUpGrid {
	g := &scaleUpGrid{}
	for _, c := range coreGrid {
		if c <= p.Cores {
			g.cores = append(g.cores, float64(c))
		}
	}
	for _, m := range memGrid {
		if m <= p.MemoryGB {
			g.mems = append(g.mems, m)
		}
	}
	g.coreDist = make([][]float64, p.Cores+1)
	for a := 1; a <= p.Cores; a++ {
		g.coreDist[a] = make([]float64, len(g.cores))
		logDists(g.coreDist[a], g.cores, float64(a))
	}
	return g
}

// logDists fills dst[i] = |log(grid[i] / x)|.
func logDists(dst, grid []float64, x float64) {
	for i, v := range grid {
		dst[i] = math.Abs(math.Log(v / x))
	}
}

// nearest returns the index into ScaleUpColumns of the column closest to
// alloc; the first one on ties.
func (g *scaleUpGrid) nearest(alloc cluster.Alloc) int {
	var coreBuf [len(coreGrid)]float64
	var memBuf [len(memGrid)]float64
	dc := coreBuf[:len(g.cores)]
	if alloc.Cores >= 1 && alloc.Cores < len(g.coreDist) {
		dc = g.coreDist[alloc.Cores]
	} else {
		logDists(dc, g.cores, float64(alloc.Cores))
	}
	dm := memBuf[:len(g.mems)]
	logDists(dm, g.mems, alloc.MemoryGB)
	best, bestD := 0, math.Inf(1)
	for ci, c := range dc {
		for mi, m := range dm {
			if d := c + m; d < bestD {
				best, bestD = ci*len(dm)+mi, d
			}
		}
	}
	return best
}

// ScaleOutCounts returns the node-count column grid up to maxNodes. The
// offline library is profiled densely over this grid ("exhaustively
// profiled ... against node counts 1 to 100"); online workloads are only
// profiled at one to four nodes.
func ScaleOutCounts(maxNodes int) []int {
	grid := []int{1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 80, 100}
	var out []int
	for _, n := range grid {
		if n <= maxNodes {
			out = append(out, n)
		}
	}
	if len(out) == 0 {
		out = []int{1}
	}
	return out
}

// NearestCountIdx returns the index of the closest node-count column.
func NearestCountIdx(counts []int, n int) int {
	best, bestD := 0, math.MaxInt
	for i, c := range counts {
		d := c - n
		if d < 0 {
			d = -d
		}
		if d < bestD {
			best, bestD = i, d
		}
	}
	return best
}

// JointCol is one column of the exhaustive classification: a full
// allocation-assignment vector (platform, per-node scale-up, node count).
type JointCol struct {
	PlatformIdx int
	CoreFrac    float64 // fraction of the platform's cores
	Nodes       int
}

// JointColumns enumerates the exhaustive space. Its size is the product of
// the individual spaces — the reason the paper's four parallel
// classifications are both faster and (with very sparse input) more
// accurate.
func JointColumns(platforms []cluster.Platform, maxNodes int) []JointCol {
	fracs := []float64{0.25, 0.5, 0.75, 1.0}
	counts := ScaleOutCounts(maxNodes)
	var out []JointCol
	for pi := range platforms {
		for _, f := range fracs {
			if int(f*float64(platforms[pi].Cores)) < 1 {
				continue
			}
			for _, n := range counts {
				out = append(out, JointCol{PlatformIdx: pi, CoreFrac: f, Nodes: n})
			}
		}
	}
	return out
}

// Alloc returns the concrete per-node allocation of a joint column.
func (c JointCol) Alloc(platforms []cluster.Platform) cluster.Alloc {
	p := platforms[c.PlatformIdx]
	cores := int(c.CoreFrac * float64(p.Cores))
	if cores < 1 {
		cores = 1
	}
	return cluster.Alloc{Cores: cores, MemoryGB: c.CoreFrac * p.MemoryGB}
}

func (c JointCol) String() string {
	return fmt.Sprintf("p%d/%.0f%%x%d", c.PlatformIdx, c.CoreFrac*100, c.Nodes)
}
