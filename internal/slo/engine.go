package slo

import (
	"slices"

	"quasar/internal/core"
	"quasar/internal/metrics"
	"quasar/internal/obs"
	"quasar/internal/obs/prof"
	"quasar/internal/perfmodel"
)

// winCount tracks the bad ticks inside one sliding window, updated
// incrementally from the ring buffer: O(1) per tick, independent of window
// length.
type winCount struct {
	ticks int // window length in ticks
	bad   int // bad ticks currently inside the window
}

// ruleState is the alert state machine of one burn rule on one workload.
type ruleState struct {
	long, short winCount

	active     bool
	firedAt    float64
	peakBurn   float64
	belowSince float64 // first tick the short burn was at/below the resolve line; -1 when none
	epIdx      int     // index into Engine.episodes of the open episode
}

// wstate is the per-workload monitoring state: the SLI ring buffer plus one
// state machine per rule.
type wstate struct {
	id     string
	class  perfmodel.Class
	goal   float64
	budget float64

	ring []uint8 // last len(ring) SLI bits; zero (good) before history exists
	head int     // next write position

	rules []ruleState

	badTotal, ticksTotal int
	done                 bool
}

// push slides every window forward by one tick with SLI bit b.
func (ws *wstate) push(b uint8) {
	n := len(ws.ring)
	for ri := range ws.rules {
		r := &ws.rules[ri]
		for _, wc := range [2]*winCount{&r.long, &r.short} {
			old := ws.ring[(ws.head-wc.ticks+n)%n]
			wc.bad += int(b) - int(old)
		}
	}
	ws.ring[ws.head] = b
	ws.head = (ws.head + 1) % n
}

// Engine monitors every non-best-effort workload of a runtime against its
// SLO and scores server and cluster health. Create it with Attach; it then
// runs itself from the runtime's tick.
type Engine struct {
	rt   *core.Runtime
	tr   *obs.Tracer
	tick float64

	// byPos[i] is the state of the task whose Task.Pos is i (nil until first
	// sight). A position names one task for the whole run, so the per-tick
	// sweep needs no lookup by ID.
	byPos  []*wstate
	states map[string]*wstate // by workload ID, for the health score's residents
	order  []*wstate          // tracked workloads in first-seen (submission) order

	episodes []Episode

	// HealthHeat holds one health-score row per server per sweep;
	// ClusterHealth is the per-sweep mean. Both are registered with the
	// tracer's metrics registry when tracing is on.
	HealthHeat    *metrics.Heatmap
	ClusterHealth metrics.Series

	nextHealth float64
	scoreBuf   []float64 // one health sweep's per-server scores, reused

	pagesFired     *obs.Counter
	ticketsFired   *obs.Counter
	alertsResolved *obs.Counter

	// Prof, when non-nil, attributes the tick sweep's wall time to
	// prof.SubSLO. Outside the determinism boundary; see internal/obs/prof.
	Prof *prof.Profiler
}

// Attach builds an SLO engine over the runtime and subscribes it to the
// runtime tick. tr may be nil (monitoring without tracing): alert episodes,
// health scores, and reports still work; only event emission and registry
// metrics are skipped.
func Attach(rt *core.Runtime, tr *obs.Tracer, _ Options) *Engine {
	e := &Engine{
		rt:         rt,
		tr:         tr,
		tick:       rt.TickSecs(),
		states:     make(map[string]*wstate),
		HealthHeat: metrics.NewHeatmap(len(rt.Cl.Servers)),
		nextHealth: rt.Eng.Now() + healthEverySecs,
	}
	e.ClusterHealth.Name = "cluster_health"
	if reg := tr.Registry(); reg != nil {
		e.pagesFired = reg.Counter("slo_pages_fired_total", "fast-burn page alerts fired")
		e.ticketsFired = reg.Counter("slo_tickets_fired_total", "slow-burn ticket alerts fired")
		e.alertsResolved = reg.Counter("slo_alerts_resolved_total", "SLO alerts resolved")
		reg.Gauge("slo_alerts_active", "currently active SLO alerts",
			func() float64 { return float64(e.ActiveAlerts()) })
		reg.Heatmap("server_health_score", "per-server health score (1 healthy, 0 failed)", e.HealthHeat)
		reg.Series("cluster_health_score", "mean per-server health score", &e.ClusterHealth)
	}
	rt.AddTickListener(e.onTick)
	return e
}

// windowTicks converts a window length to whole ticks (at least one).
func (e *Engine) windowTicks(secs float64) int {
	n := int(secs/e.tick + 0.5)
	if n < 1 {
		n = 1
	}
	return n
}

// newState starts monitoring a workload on first sight.
func (e *Engine) newState(t *core.Task) *wstate {
	class := t.W.Type.Class()
	goal := goalBatch
	if class == perfmodel.LatencyCritical {
		goal = goalLC
	}
	maxTicks := 1
	rules := make([]ruleState, len(burnRules))
	for i, r := range burnRules {
		rules[i] = ruleState{
			long:       winCount{ticks: e.windowTicks(r.LongSecs)},
			short:      winCount{ticks: e.windowTicks(r.ShortSecs)},
			belowSince: -1,
			epIdx:      -1,
		}
		if rules[i].long.ticks > maxTicks {
			maxTicks = rules[i].long.ticks
		}
		if rules[i].short.ticks > maxTicks {
			maxTicks = rules[i].short.ticks
		}
	}
	return &wstate{
		id:     t.W.ID,
		class:  class,
		goal:   goal,
		budget: 1 - goal,
		ring:   make([]uint8, maxTicks),
		rules:  rules,
	}
}

// started reports whether the task has ever begun serving: running now,
// finished, or displaced back to the queue after a start.
func started(t *core.Task) bool {
	switch t.Status {
	case core.StatusRunning, core.StatusCompleted:
		return true
	case core.StatusQueued:
		return t.FirstStartAt > 0 && t.DoneAt == 0 //lint:allow(floatcmp) zero is the never-finished sentinel
	}
	return false
}

// onTick is the runtime tick listener: one monitoring sweep.
func (e *Engine) onTick(now float64) {
	t0 := e.Prof.Begin()
	defer e.Prof.End(prof.SubSLO, t0)
	// Evaluate the live tasks in submission order: a task leaves Live only
	// after the sweep in which it completed, which closed its state here.
	// Best-effort workloads carry no guarantee, so they carry no SLO.
	tasks := e.rt.Live()
	if n := len(tasks); n > 0 {
		// The last live task has the highest position. Entries past
		// len(byPos) were never written, so the new slots are nil: no state
		// yet.
		if want := tasks[n-1].Pos() + 1; want > len(e.byPos) {
			e.byPos = slices.Grow(e.byPos, want-len(e.byPos))[:want]
		}
	}
	for _, t := range tasks {
		if t.W.BestEffort {
			continue
		}
		ws := e.byPos[t.Pos()]
		if ws == nil {
			if t.Status != core.StatusCompleted && started(t) {
				ws = e.newState(t)
				e.byPos[t.Pos()] = ws
				e.states[t.W.ID] = ws
				e.order = append(e.order, ws)
			} else {
				continue
			}
		}
		if !ws.done {
			e.evalOne(ws, t, now)
		}
	}

	if now+1e-9 >= e.nextHealth {
		e.healthSweep(now)
		e.nextHealth += healthEverySecs
	}
}

// evalOne advances one workload's SLI window and alert state machines by
// one tick, tracing and recording every alert that fires or resolves.
func (e *Engine) evalOne(ws *wstate, t *core.Task, now float64) {
	if t.Status == core.StatusCompleted || t.Status == core.StatusRejected {
		// The workload is gone; close any open alert.
		for ri := range ws.rules {
			r := &ws.rules[ri]
			if !r.active {
				continue
			}
			r.active = false
			if e.tr.Enabled() {
				e.tr.InstantAt(now, workloadTrack(ws.id), "slo", "alert_resolve",
					obs.Arg{Key: "rule", Val: burnRules[ri].Name},
					obs.Arg{Key: "duration_secs", Val: now - r.firedAt},
					obs.Arg{Key: "peak_burn", Val: r.peakBurn},
					obs.Arg{Key: "reason", Val: "completed"})
			}
			e.resolve(r, now)
		}
		ws.done = true
		return
	}

	bad := uint8(0)
	if now-t.FirstStartAt >= warmupSecs && e.badTick(t, now) {
		bad = 1
	}
	ws.push(bad)
	ws.ticksTotal++
	ws.badTotal += int(bad)

	for ri := range ws.rules {
		rule := burnRules[ri]
		r := &ws.rules[ri]
		burnL := float64(r.long.bad) / float64(r.long.ticks) / ws.budget
		burnS := float64(r.short.bad) / float64(r.short.ticks) / ws.budget
		if !r.active {
			if burnL >= rule.Burn && burnS >= rule.Burn {
				r.active = true
				r.firedAt = now
				r.peakBurn = burnL
				r.belowSince = -1
				if e.tr.Enabled() {
					e.tr.InstantAt(now, workloadTrack(ws.id), "slo", "alert_fire",
						obs.Arg{Key: "rule", Val: rule.Name},
						obs.Arg{Key: "goal", Val: ws.goal},
						obs.Arg{Key: "budget", Val: ws.budget},
						obs.Arg{Key: "burn_long", Val: burnL},
						obs.Arg{Key: "burn_short", Val: burnS},
						obs.Arg{Key: "threshold", Val: rule.Burn},
						obs.Arg{Key: "window_long_secs", Val: rule.LongSecs},
						obs.Arg{Key: "window_short_secs", Val: rule.ShortSecs},
						obs.Arg{Key: "bad_secs_long", Val: float64(r.long.bad) * e.tick},
						obs.Arg{Key: "bad_secs_short", Val: float64(r.short.bad) * e.tick})
				}
				if rule.Name == "page" {
					e.pagesFired.Inc()
				} else {
					e.ticketsFired.Inc()
				}
				e.episodes = append(e.episodes, Episode{
					Workload: ws.id, Rule: rule.Name, FireAt: now, ResolveAt: -1,
				})
				r.epIdx = len(e.episodes) - 1
			}
			continue
		}
		if burnL > r.peakBurn {
			r.peakBurn = burnL
		}
		// Hysteresis: resolve only after the short-window burn has stayed
		// at or below resolveFrac x threshold for the hold time.
		if burnS <= rule.Burn*resolveFrac {
			if r.belowSince < 0 {
				r.belowSince = now
			}
			if now-r.belowSince >= resolveHoldSecs {
				r.active = false
				if e.tr.Enabled() {
					e.tr.InstantAt(now, workloadTrack(ws.id), "slo", "alert_resolve",
						obs.Arg{Key: "rule", Val: rule.Name},
						obs.Arg{Key: "duration_secs", Val: now - r.firedAt},
						obs.Arg{Key: "peak_burn", Val: r.peakBurn},
						obs.Arg{Key: "burn_short", Val: burnS})
				}
				e.resolve(r, now)
			}
		} else {
			r.belowSince = -1
		}
	}
}

// resolve counts a resolved alert and closes its episode.
func (e *Engine) resolve(r *ruleState, now float64) {
	e.alertsResolved.Inc()
	if r.epIdx >= 0 {
		e.episodes[r.epIdx].ResolveAt = now
		e.episodes[r.epIdx].PeakBurn = r.peakBurn
		r.epIdx = -1
	}
}

// badTick is the per-class SLI: does this tick violate the workload's
// declared target? It reads runtime state that the tick sweep has already
// updated.
func (e *Engine) badTick(t *core.Task, now float64) bool {
	switch t.W.Type.Class() {
	case perfmodel.LatencyCritical:
		if t.Status != core.StatusRunning {
			// Started but currently displaced: the service is down.
			return true
		}
		if n := t.QoSFrac.Len(); n > 0 {
			return t.QoSFrac.Vals[n-1] < QoSMetFraction
		}
		return false
	case perfmodel.Analytics:
		remaining := t.W.Genome.Work - t.Progress
		if remaining <= 0 {
			return false
		}
		deadline := t.SubmitAt + t.W.Target.CompletionSecs
		if now >= deadline {
			return true
		}
		// Behind schedule: the current rate cannot finish the remaining
		// work by the deadline.
		return e.rt.TrueRate(t) < remaining/(deadline-now)
	default: // single-node
		if t.Status != core.StatusRunning {
			return true
		}
		return e.rt.TrueRate(t) < t.W.Target.IPS
	}
}

func workloadTrack(id string) string { return "workload/" + id }

// Episodes returns every alert episode so far, in fire order.
func (e *Engine) Episodes() []Episode {
	out := make([]Episode, len(e.episodes))
	copy(out, e.episodes)
	return out
}

// ActiveAlerts counts currently firing alerts across all workloads.
func (e *Engine) ActiveAlerts() int {
	n := 0
	for _, ws := range e.order {
		for ri := range ws.rules {
			if ws.rules[ri].active {
				n++
			}
		}
	}
	return n
}

// Tracked returns the number of workloads ever monitored.
func (e *Engine) Tracked() int { return len(e.order) }

// BudgetStatus reports one workload's budget consumption to date.
type BudgetStatus struct {
	Workload string
	Class    perfmodel.Class
	Goal     float64
	BadTicks int
	Ticks    int
	// Consumed is (bad fraction)/(budget): 1.0 means the budget is exactly
	// spent, >1 means the goal was missed over the monitored horizon.
	Consumed float64
}

// Health returns the most recent cluster health sweep value (1 = every
// server healthy, 0 = every server failed) and whether a sweep has run yet.
// Serve mode's /healthz endpoint reads this.
func (e *Engine) Health() (float64, bool) {
	if n := e.ClusterHealth.Len(); n > 0 {
		return e.ClusterHealth.Vals[n-1], true
	}
	return 0, false
}

// Budgets returns per-workload budget status in submission order.
func (e *Engine) Budgets() []BudgetStatus {
	out := make([]BudgetStatus, 0, len(e.order))
	for _, ws := range e.order {
		consumed := 0.0
		if ws.ticksTotal > 0 {
			consumed = float64(ws.badTotal) / float64(ws.ticksTotal) / ws.budget
		}
		out = append(out, BudgetStatus{
			Workload: ws.id, Class: ws.class, Goal: ws.goal,
			BadTicks: ws.badTotal, Ticks: ws.ticksTotal, Consumed: consumed,
		})
	}
	return out
}
