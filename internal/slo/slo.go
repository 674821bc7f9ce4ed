// Package slo implements deterministic SLO monitoring over the simulated
// cluster. Quasar's premise is that users declare performance targets, not
// reservations — so every workload carries an implicit SLO. This package
// makes that SLO explicit and continuously monitored, the way an operator
// would page on it:
//
//   - Per workload, an error budget is derived from the declared target
//     (QPS + tail latency for services, completion deadline for analytics,
//     IPS for single-node) and a per-class availability goal. Each
//     monitoring tick is classified good or bad against the target; the
//     budget is the tolerated bad fraction.
//   - Google-SRE-style multi-window multi-burn-rate rules evaluate the bad
//     fraction over a long and a short window. A fast-burn rule (page)
//     catches sharp regressions within seconds; a slow-burn rule (ticket)
//     catches budget leaks a human should look at this week. Firing
//     requires BOTH windows above threshold — the long window supplies
//     evidence, the short window confirms the problem is still happening.
//     Hysteresis (resolve fraction + hold time) stops alert flapping.
//   - Per server and cluster-wide, a health score blends utilization
//     overload, interference pressure, failure-detector belief, and the
//     mass of active alerts on resident workloads into one [0,1] number.
//
// Determinism contract. The engine runs entirely on the simulation clock,
// driven by a runtime tick listener on the simulation goroutine. Each tick
// evaluates the tracked workloads in submission order, emitting and
// recording alerts as it goes, then runs the health sweep when due. No RNG
// is consumed: alerting is a pure function of the observed stream.
package slo

// burnRule is one multi-window burn-rate alerting rule. The burn rate over
// a window is (bad fraction over the window) / (error budget); a burn of 1
// consumes the budget exactly at the tolerated pace, a burn of 10 exhausts
// it 10x too fast. The rule fires when the burn over BOTH windows reaches
// Burn.
type burnRule struct {
	// Name labels the rule in events and reports ("page", "ticket").
	Name string
	// LongSecs is the evidence window.
	LongSecs float64
	// ShortSecs is the confirmation window; it also drives resolution.
	ShortSecs float64
	// Burn is the firing threshold in budget-burn multiples.
	Burn float64
}

// burnRules are the burn-rate rules evaluated per workload, in severity
// order, following the SRE-workbook shape scaled to simulation time: the
// page catches a hard outage in ~30s of continuous badness (long window x
// threshold x budget), well inside the heartbeat detector's 40s dead
// window; the ticket catches slow leaks that would quietly eat the budget.
var burnRules = []burnRule{
	{Name: "page", LongSecs: 300, ShortSecs: 60, Burn: 10},
	{Name: "ticket", LongSecs: 1800, ShortSecs: 300, Burn: 2},
}

const (
	// goalLC is the availability goal for latency-critical services: a
	// budget of 1% of ticks may miss QoS.
	goalLC = 0.99
	// goalBatch is the goal for analytics and single-node workloads, whose
	// targets are softer deadlines.
	goalBatch = 0.95

	// warmupSecs skips SLI evaluation for this long after a workload
	// first starts, matching the runtime's latency-distribution warm-up:
	// placement ramp-up is not an SLO violation. A re-admission after a
	// displacement does not restart it.
	warmupSecs = 600

	// resolveFrac and resolveHoldSecs are the hysteresis: an active alert
	// resolves only after the short-window burn stays at or below
	// resolveFrac x threshold for resolveHoldSecs.
	resolveFrac     = 0.5
	resolveHoldSecs = 60

	// healthEverySecs is the health-score sweep period.
	healthEverySecs = 60
)

// Options configures the SLO engine. It has no fields: the engine runs one
// configuration, the rules, goals, warm-up, hysteresis and health period
// above.
type Options struct{}

// QoSMetFraction is the met-fraction below which a latency-critical tick
// counts against the budget. It matches the runtime's qos-met<->miss edge
// threshold so alerts and trace edges tell one story.
const QoSMetFraction = 0.95

// DefaultOptions returns the (empty) configuration Attach takes.
func DefaultOptions() Options { return Options{} }

// Episode is one fired alert from fire to resolution.
type Episode struct {
	Workload string
	Rule     string
	FireAt   float64
	// ResolveAt is negative while the alert is still active.
	ResolveAt float64
	// PeakBurn is the highest long-window burn observed while active.
	PeakBurn float64
}

// Open reports whether the episode is still active.
func (ep Episode) Open() bool { return ep.ResolveAt < 0 }
