package cluster

// Tier is a resident's place in the yield order: who gives way to whom when
// work competes for a server. The order follows Kubernetes' QoS classes:
// Guaranteed before Burstable before BestEffort. Every decision about
// yielding or about honouring a target asks the tier, so the policy lives
// here and nowhere else.
type Tier uint8

const (
	// Guaranteed is latency-critical work with a target.
	Guaranteed Tier = iota
	// Burstable is batch work with a target.
	Burstable
	// BestEffort is filler with no target.
	BestEffort
)

// Yields reports whether a resident of this tier gives way to work that
// needs its resources. Today only best-effort work yields, and it yields by
// eviction.
func (t Tier) Yields() bool { return t == BestEffort }

// Targeted reports whether the tier carries a performance target: whether
// its residents' interference tolerance is respected and their SLO counts.
func (t Tier) Targeted() bool { return t != BestEffort }
