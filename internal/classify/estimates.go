package classify

import (
	"math"

	"quasar/internal/cluster"
	"quasar/internal/interference"
	"quasar/internal/perfmodel"
)

// Estimates is the classification output for one workload: the
// reconstructed performance surface along all four axes, in the workload's
// own performance metric (work rate for batch, QPS-at-QoS for services).
// The greedy scheduler composes these to predict performance for any
// candidate allocation/assignment (§3.3).
type Estimates struct {
	Engine *Engine
	ID     string
	Row    int
	Class  perfmodel.Class

	// RefPerf is the measured absolute performance at the reference
	// allocation (whole profiling node); SULog and HetLog are relative to
	// it.
	RefPerf float64
	SULog   []float64 // log perf ratio per scale-up column vs reference
	SOLog   []float64 // log relative scaling per node-count column
	HetLog  []float64 // log whole-node perf ratio per platform vs reference
	Tol     cluster.ResVec
	Caused  cluster.ResVec

	beta float64 // scale-out exponent fitted to SOLog
}

// deriveBeta fits log(scaling) = beta * log(n) over the scale-out row by
// weighted least squares through the origin. Directly measured points carry
// far more weight than reconstructed ones: fold-in regresses toward the
// library mean, which would mask strongly sub- or superlinear jobs.
func (es *Estimates) deriveBeta(observed map[int]float64) {
	num, den := 0.0, 0.0
	for j, n := range es.Engine.SOCounts {
		if n <= 1 {
			continue
		}
		w := 1.0
		if _, ok := observed[j]; ok {
			w = 25.0
		}
		x := math.Log(float64(n))
		num += w * x * es.SOLog[j]
		den += w * x * x
	}
	if den == 0 { //lint:allow(floatcmp) exact-zero guard before division
		es.beta = 1
		return
	}
	es.beta = num / den
	if es.beta < 0.3 {
		es.beta = 0.3
	}
	if es.beta > 1.3 {
		es.beta = 1.3
	}
}

// Beta returns the estimated scale-out exponent.
func (es *Estimates) Beta() float64 { return es.beta }

// EstSensitivity converts the tolerated-intensity row into estimated
// full-contention sensitivities.
func (es *Estimates) EstSensitivity() cluster.ResVec {
	var s cluster.ResVec
	for r := 0; r < int(cluster.NumResources); r++ {
		s[r] = interference.ToleranceToSensitivity(es.Tol[r], interference.DefaultQoSDrop)
	}
	return s
}

// EstCausedPressure scales the caused-intensity row to an allocation on a
// platform, mirroring how real pressure scales with the occupied share of
// the machine.
func (es *Estimates) EstCausedPressure(platformIdx int, alloc cluster.Alloc) cluster.ResVec {
	p := &es.Engine.Platforms[platformIdx]
	frac := float64(alloc.Cores) / float64(p.Cores)
	if frac > 1 {
		frac = 1
	}
	// The caused row was measured at a half-node allocation on the
	// profiling platform; rescale by the core-fraction ratio.
	ref := 0.5
	out := es.Caused.Scale(frac / ref)
	for r := range out {
		if out[r] > 1 {
			out[r] = 1
		}
	}
	return out
}

// NodePerf estimates the workload's performance on one server of the given
// platform with the given allocation, under the given interference
// pressure: NodeBase × interference penalty.
func (es *Estimates) NodePerf(platformIdx int, alloc cluster.Alloc, pressure cluster.ResVec) float64 {
	perf := es.NodeBase(platformIdx, alloc)
	perf *= perfmodel.InterferencePenalty(es.EstSensitivity(), pressure)
	return perf
}

// NodeBase is NodePerf without interference: whole-node heterogeneity
// estimate × scale-up fraction. The scale-up fraction is
// rate(alloc)/rate(whole node), read off the scale-up row at the nearest
// quantized columns. Callers that appraise many servers of one platform
// compute it once and apply the penalty per server, in NodePerf's order.
func (es *Estimates) NodeBase(platformIdx int, alloc cluster.Alloc) float64 {
	e := es.Engine
	whole := es.RefPerf * math.Exp(es.HetLog[platformIdx])
	ja, jr := e.suGrid.nearest(alloc), e.wholeCol[platformIdx]
	return whole * math.Exp(es.SULog[ja]-es.SULog[jr])
}

// ScaleOutEff returns the estimated efficiency multiplier for n nodes:
// n^(beta-1).
func (es *Estimates) ScaleOutEff(n int) float64 {
	if n <= 1 {
		return 1
	}
	return math.Pow(float64(n), es.beta-1)
}

// NodeChoice is one server in a candidate assignment.
type NodeChoice struct {
	PlatformIdx int
	Alloc       cluster.Alloc
	Pressure    cluster.ResVec
}

// JobPerf estimates aggregate performance over a candidate multi-node
// assignment.
func (es *Estimates) JobPerf(nodes []NodeChoice) float64 {
	sum := 0.0
	for _, n := range nodes {
		sum += es.NodePerf(n.PlatformIdx, n.Alloc, n.Pressure)
	}
	return sum * es.ScaleOutEff(len(nodes))
}

// CorrectWith implements the paper's runtime feedback loop (§3.2): when the
// measured performance of a live allocation deviates from the estimate, the
// deviation is folded back into the estimates (and, via Engine.Feedback,
// into the matrices), so the scheduler stops trusting — and re-picking —
// misestimated platforms. It returns the correction factor applied.
func (es *Estimates) CorrectWith(measured float64, nodes []NodeChoice) float64 {
	if measured <= 0 || len(nodes) == 0 {
		return 1
	}
	est := es.JobPerf(nodes)
	if est <= 0 {
		return 1
	}
	c := measured / est
	if c > 4 {
		c = 4
	}
	if c < 0.25 {
		c = 0.25
	}
	if c > 0.9 && c < 1.1 {
		return 1 // within noise; leave the estimates alone
	}
	adj := math.Log(c)
nodes:
	for k, n := range nodes {
		for _, prev := range nodes[:k] {
			if prev.PlatformIdx == n.PlatformIdx {
				continue nodes // each platform is corrected once
			}
		}
		es.HetLog[n.PlatformIdx] += adj
		// Propagate to the engine's matrix so future workloads benefit.
		es.Engine.Feedback(es.ID, AxisHetero, n.PlatformIdx, math.Exp(es.HetLog[n.PlatformIdx]))
	}
	return c
}
