package core

import (
	"quasar/internal/cluster"
)

// Resource partitioning (§4.4): when hardware isolation mechanisms exist —
// cache partitioning (e.g. CAT) for the cache hierarchy, rate limiting at
// the NIC — Quasar determines their settings the same way it determines
// core counts: it enables isolation on servers where a resident's
// interference tolerance is violated in a partitionable resource, which
// makes colocations possible that plain interference-aware placement would
// have to avoid.

// partitionable lists the resources hardware isolation can attenuate and
// the fraction of cross-workload pressure it removes.
var partitionable = map[cluster.Resource]float64{
	cluster.ResLLC:   0.7, // way-partitioned last-level cache
	cluster.ResL2:    0.5, // core clustering
	cluster.ResNetBW: 0.8, // NIC rate limiting
}

// managePartitions reconfigures isolation on every server with more than
// one resident: enabled for a partitionable resource when some resident's
// tolerated intensity is exceeded there, disabled when no longer needed
// (isolation is not free — it caps what a single tenant may use — so it is
// applied only where required).
func (q *Quasar) managePartitions() {
	for _, srv := range q.rt.Cl.Servers {
		var want cluster.ResVec
		// Any resident can be contended — by colocated workloads or by
		// injected probes.
		if srv.NumPlacements() >= 1 {
			for _, pl := range srv.Placements() {
				if !pl.Tier.Targeted() {
					continue
				}
				st, ok := q.state[pl.WorkloadID]
				if !ok {
					continue
				}
				raw := q.rawPressureOn(srv, pl.WorkloadID)
				for r, frac := range partitionable {
					if raw[r] > st.est.Tol[r] {
						if frac > want[r] {
							want[r] = frac
						}
					}
				}
			}
		}
		if want != srv.Isolation() {
			srv.SetIsolation(want)
		}
	}
}

// rawPressureOn computes the pressure a workload would experience with no
// isolation configured (the quantity partitioning decisions are based on).
func (q *Quasar) rawPressureOn(srv *cluster.Server, workloadID string) cluster.ResVec {
	iso := srv.Isolation()
	p := srv.PressureOn(workloadID)
	for r := range p {
		if iso[r] < 1 {
			p[r] /= 1 - iso[r]
		}
	}
	return p
}
