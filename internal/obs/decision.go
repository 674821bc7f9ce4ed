package obs

// This file defines the decision-explainability payloads: structured records
// of why the scheduler and the Quasar manager acted as they did, attached to
// trace events as Args. They are plain structs with json tags (struct fields
// marshal in declaration order, which keeps the exporters byte-stable) and
// are decoded back by cmd/quasar-trace when reconstructing a run.
//
// Emit them by value. The size estimate and the event-line encoder both
// recognise the value types and nothing else; a pointer to one is an
// ordinary opaque payload to both.

// Candidate is one ranked server considered by a scheduling decision, with
// the ranking inputs the greedy scheduler composed: platform affinity and
// interference folded into Quality, free-after-eviction capacity, the
// interference-compatibility verdict, and the live pressure on the server.
type Candidate struct {
	Server   int     `json:"server"`
	Platform string  `json:"platform"`
	Quality  float64 `json:"quality"`
	// FreeCores and FreeMemGB count best-effort residents as removable
	// (free-after-eviction capacity).
	FreeCores int     `json:"free_cores"`
	FreeMemGB float64 `json:"free_mem_gb"`
	// Evictable is the number of best-effort placements counted above.
	Evictable int `json:"evictable"`
	// Compatible reports the interference check: false means placing here
	// would push a classified resident past its tolerance, and Quality was
	// penalized 20x.
	Compatible bool `json:"compatible"`
	// Pressure is the max-resource interference pressure the workload would
	// see on this server.
	Pressure float64 `json:"pressure"`
	// Picked marks servers chosen by the decision.
	Picked bool `json:"picked"`
}

// NodePick is one chosen node of an assignment.
type NodePick struct {
	Server  int     `json:"server"`
	Cores   int     `json:"cores"`
	MemGB   float64 `json:"mem_gb"`
	EstPerf float64 `json:"est_perf"`
}

// Schedule-decision outcomes.
const (
	OutcomePlaced       = "placed"
	OutcomeNoCapacity   = "no-capacity"
	OutcomeBelowMinFill = "below-min-fill"
	OutcomeBadRequest   = "bad-request"
)

// ScheduleDecision records one sched.Scheduler.Schedule call end to end: the
// requirement, every candidate with its ranking inputs, the chosen nodes, and
// the outcome. From this alone a reader can answer "why did task X land on
// server Y" — Y's quality rank against its rivals — or why it was rejected.
type ScheduleDecision struct {
	Workload string  `json:"workload"`
	NeedPerf float64 `json:"need_perf"`
	// Want is NeedPerf with the scheduler's margin applied.
	Want          float64     `json:"want"`
	MaxNodes      int         `json:"max_nodes"`
	AcceptPartial bool        `json:"accept_partial,omitempty"`
	MaxCost       float64     `json:"max_cost_per_hour,omitempty"`
	Candidates    []Candidate `json:"candidates"`
	// CandidatesDropped counts ranking entries left out under the tracer's
	// top-K cap (0 when the full ranking is recorded).
	CandidatesDropped int        `json:"candidates_dropped,omitempty"`
	Picks             []NodePick `json:"picks,omitempty"`
	EstPerf           float64    `json:"est_perf"`
	CostPerHour       float64    `json:"cost_per_hour,omitempty"`
	Evictions         []string   `json:"evictions,omitempty"`
	Outcome           string     `json:"outcome"`
}

// PickedServers returns the chosen server IDs.
func (d *ScheduleDecision) PickedServers() []int {
	out := make([]int, 0, len(d.Picks))
	for _, p := range d.Picks {
		out = append(out, p.Server)
	}
	return out
}

// CandidateFor returns the candidate entry for a server, if present.
func (d *ScheduleDecision) CandidateFor(server int) (Candidate, bool) {
	for _, c := range d.Candidates {
		if c.Server == server {
			return c, true
		}
	}
	return Candidate{}, false
}

// AdmitDecision records the classification outcome at admission: the
// estimates the scheduler will act on.
type AdmitDecision struct {
	Workload string  `json:"workload"`
	Class    string  `json:"class"`
	RefPerf  float64 `json:"ref_perf"`
	Beta     float64 `json:"beta"`
	// Tol and Caused are the interference rows (one value per resource).
	Tol      []float64 `json:"tol"`
	Caused   []float64 `json:"caused"`
	WorkEst  float64   `json:"work_est,omitempty"`
	Deadline float64   `json:"deadline,omitempty"`
}

// AdjustDecision records one monitoring adjustment (scale-up/out or reclaim):
// the measured-vs-needed deviation that triggered it and the actions taken.
type AdjustDecision struct {
	Workload string  `json:"workload"`
	Need     float64 `json:"need"`
	Measured float64 `json:"measured"`
	// Actions lists what was done, e.g. "resize server 3 -> 8c/16g",
	// "scale-out +2 nodes", "drop server 9", "none: at cost cap".
	Actions []string `json:"actions"`
}
