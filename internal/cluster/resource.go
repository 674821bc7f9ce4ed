// Package cluster models a datacenter of heterogeneous servers: platforms,
// per-server resource accounting, workload placements, and the shared-
// resource pressure bookkeeping that drives interference between colocated
// workloads.
package cluster

import "fmt"

// Resource enumerates the shared resources in which colocated workloads
// interfere. They correspond to the iBench-style contention sources of the
// paper's Table 1 (interference patterns B–I) plus memory bandwidth, which
// the paper's text lists among the classified resources.
type Resource int

const (
	ResCPU Resource = iota
	ResL1I
	ResL2
	ResLLC
	ResMemBW
	ResMemCap
	ResPrefetch
	ResDiskIO
	ResNetBW

	// NumResources is the number of interference resources.
	NumResources
)

var resourceNames = [NumResources]string{
	"cpu", "l1i", "l2", "llc", "membw", "memcap", "prefetch", "disk", "net",
}

// String returns the short resource name.
func (r Resource) String() string {
	if r < 0 || r >= NumResources {
		return fmt.Sprintf("resource(%d)", int(r))
	}
	return resourceNames[r]
}

// ParseResource maps a short name back to a Resource.
func ParseResource(s string) (Resource, error) {
	for i, n := range resourceNames {
		if n == s {
			return Resource(i), nil
		}
	}
	return 0, fmt.Errorf("cluster: unknown resource %q", s)
}

// ResVec holds one value per interference resource, e.g. a sensitivity
// profile or the pressure currently present on a server.
type ResVec [NumResources]float64

// Add returns the element-wise sum v+w.
func (v ResVec) Add(w ResVec) ResVec {
	for i := range v {
		v[i] += w[i]
	}
	return v
}

// Sub returns the element-wise difference v-w, clamped at zero: pressure
// bookkeeping must never go negative due to floating-point residue.
func (v ResVec) Sub(w ResVec) ResVec {
	for i := range v {
		v[i] -= w[i]
		if v[i] < 0 {
			v[i] = 0
		}
	}
	return v
}

// Scale returns v with every element multiplied by k.
func (v ResVec) Scale(k float64) ResVec {
	for i := range v {
		v[i] *= k
	}
	return v
}

// Max returns the largest element.
func (v ResVec) Max() float64 {
	m := v[0]
	for _, x := range v[1:] {
		if x > m {
			m = x
		}
	}
	return m
}
