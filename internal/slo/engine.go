package slo

import (
	"slices"

	"quasar/internal/core"
	"quasar/internal/metrics"
	"quasar/internal/obs"
	"quasar/internal/obs/prof"
	"quasar/internal/par"
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
// state machine per rule. It is touched only by its own fan-out task during
// a tick, then read sequentially afterwards.
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

// tickResult is what one fan-out task reports back for sequential
// application: indices into Options.Rules of alerts that fired or resolved
// this tick, and whether the workload finished.
type tickResult struct {
	fired    []int
	resolved []int
	finalize bool
}

// evalItem pairs a workload's monitor state with its task for one sweep.
type evalItem struct {
	ws *wstate
	t  *core.Task
}

// Engine monitors every non-best-effort workload of a runtime against its
// SLO and scores server and cluster health. Create it with Attach; it then
// runs itself from the runtime's tick.
type Engine struct {
	rt   *core.Runtime
	tr   *obs.Tracer
	opts Options
	tick float64

	// byPos[i] is the state of the task at position i of rt.Tasks() (nil
	// until first sight). Tasks() only appends, so a position names one task
	// for the whole run and the per-tick sweep needs no lookup by ID.
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

	// evalBuf and resultsBuf are reused across ticks so the sweep does not
	// reallocate its evaluation list and result table every tick. onTick
	// runs on the single simulation goroutine.
	evalBuf    []evalItem
	resultsBuf []tickResult
	scoreBuf   []float64

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
func Attach(rt *core.Runtime, tr *obs.Tracer, opts Options) *Engine {
	opts = opts.normalized()
	e := &Engine{
		rt:         rt,
		tr:         tr,
		opts:       opts,
		tick:       rt.TickSecs(),
		states:     make(map[string]*wstate),
		HealthHeat: metrics.NewHeatmap(len(rt.Cl.Servers)),
		nextHealth: rt.Eng.Now() + opts.HealthEverySecs,
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

// Options returns the normalized configuration the engine runs with.
func (e *Engine) Options() Options { return e.opts }

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
	goal := e.opts.GoalBatch
	if class == perfmodel.LatencyCritical {
		goal = e.opts.GoalLC
	}
	maxTicks := 1
	rules := make([]ruleState, len(e.opts.Rules))
	for i, r := range e.opts.Rules {
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
		return t.StartAt > 0 && t.DoneAt == 0 //lint:allow(floatcmp) zero is the never-finished sentinel
	}
	return false
}

// onTick is the runtime tick listener: one monitoring sweep.
func (e *Engine) onTick(now float64) {
	t0 := e.Prof.Begin()
	defer e.Prof.End(prof.SubSLO, t0)
	// Build this tick's evaluation list in submission order. Best-effort
	// workloads carry no guarantee, so they carry no SLO.
	tasks := e.rt.Tasks()
	if grow := len(tasks) - len(e.byPos); grow > 0 {
		// Entries past len(byPos) were never written, so the new slots are
		// nil: no state yet.
		e.byPos = slices.Grow(e.byPos, grow)[:len(tasks)]
	}
	eval := e.evalBuf[:0]
	for i, t := range tasks {
		if t.W.BestEffort {
			continue
		}
		ws := e.byPos[i]
		if ws == nil {
			if t.Status != core.StatusCompleted && started(t) {
				ws = e.newState(t)
				e.byPos[i] = ws
				e.states[t.W.ID] = ws
				e.order = append(e.order, ws)
			} else {
				continue
			}
		}
		if ws.done {
			continue
		}
		eval = append(eval, evalItem{ws: ws, t: t})
	}
	e.evalBuf = eval

	n := len(eval)
	if n > 0 {
		workers := 1
		if n >= e.opts.ParThreshold {
			workers = e.opts.Workers
		}
		// Same emission path for both the sequential and parallel case:
		// per-task shards merged in input order, so the trace does not
		// depend on the worker count.
		shards := e.tr.Shards(n)
		if cap(e.resultsBuf) < n {
			e.resultsBuf = make([]tickResult, n)
		}
		results := e.resultsBuf[:n]
		par.ParFor(workers, n, func(i int) {
			results[i] = e.evalOne(eval[i].ws, eval[i].t, now, shards[i])
		})
		e.tr.Merge(shards)
		// Counters and the episode log mutate shared state: apply the
		// per-task results sequentially, in input order.
		for i := range results {
			ws := eval[i].ws
			for _, ri := range results[i].fired {
				rule := e.opts.Rules[ri]
				if rule.Name == "page" {
					e.pagesFired.Inc()
				} else {
					e.ticketsFired.Inc()
				}
				e.episodes = append(e.episodes, Episode{
					Workload: ws.id, Rule: rule.Name, FireAt: now, ResolveAt: -1,
				})
				ws.rules[ri].epIdx = len(e.episodes) - 1
			}
			for _, ri := range results[i].resolved {
				e.alertsResolved.Inc()
				if idx := ws.rules[ri].epIdx; idx >= 0 {
					e.episodes[idx].ResolveAt = now
					e.episodes[idx].PeakBurn = ws.rules[ri].peakBurn
					ws.rules[ri].epIdx = -1
				}
			}
			if results[i].finalize {
				ws.done = true
			}
		}
	}

	if now+1e-9 >= e.nextHealth {
		e.healthSweep(now)
		e.nextHealth += e.opts.HealthEverySecs
	}
}

// evalOne advances one workload's SLI window and alert state machines by
// one tick. It touches only ws and emits only into sh, so ticks fan out
// across workers; the returned result is applied sequentially afterwards.
func (e *Engine) evalOne(ws *wstate, t *core.Task, now float64, sh *obs.Shard) tickResult {
	var res tickResult
	if t.Status == core.StatusCompleted || t.Status == core.StatusRejected {
		// The workload is gone; close any open alert.
		for ri := range ws.rules {
			r := &ws.rules[ri]
			if !r.active {
				continue
			}
			r.active = false
			if sh.Enabled() {
				sh.Instant(workloadTrack(ws.id), "slo", "alert_resolve",
					obs.Arg{Key: "rule", Val: e.opts.Rules[ri].Name},
					obs.Arg{Key: "duration_secs", Val: now - r.firedAt},
					obs.Arg{Key: "peak_burn", Val: r.peakBurn},
					obs.Arg{Key: "reason", Val: "completed"})
			}
			res.resolved = append(res.resolved, ri)
		}
		res.finalize = true
		return res
	}

	bad := uint8(0)
	if now-t.StartAt >= e.opts.WarmupSecs && e.badTick(t, now) {
		bad = 1
	}
	ws.push(bad)
	ws.ticksTotal++
	ws.badTotal += int(bad)

	for ri := range ws.rules {
		rule := e.opts.Rules[ri]
		r := &ws.rules[ri]
		burnL := float64(r.long.bad) / float64(r.long.ticks) / ws.budget
		burnS := float64(r.short.bad) / float64(r.short.ticks) / ws.budget
		if !r.active {
			if burnL >= rule.Burn && burnS >= rule.Burn {
				r.active = true
				r.firedAt = now
				r.peakBurn = burnL
				r.belowSince = -1
				if sh.Enabled() {
					sh.Instant(workloadTrack(ws.id), "slo", "alert_fire",
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
				res.fired = append(res.fired, ri)
			}
			continue
		}
		if burnL > r.peakBurn {
			r.peakBurn = burnL
		}
		// Hysteresis: resolve only after the short-window burn has stayed
		// at or below ResolveFrac x threshold for the hold time.
		if burnS <= rule.Burn*e.opts.ResolveFrac {
			if r.belowSince < 0 {
				r.belowSince = now
			}
			if now-r.belowSince >= e.opts.ResolveHoldSecs {
				r.active = false
				if sh.Enabled() {
					sh.Instant(workloadTrack(ws.id), "slo", "alert_resolve",
						obs.Arg{Key: "rule", Val: rule.Name},
						obs.Arg{Key: "duration_secs", Val: now - r.firedAt},
						obs.Arg{Key: "peak_burn", Val: r.peakBurn},
						obs.Arg{Key: "burn_short", Val: burnS})
				}
				res.resolved = append(res.resolved, ri)
			}
		} else {
			r.belowSince = -1
		}
	}
	return res
}

// badTick is the per-class SLI: does this tick violate the workload's
// declared target? It reads runtime state that the tick sweep has already
// updated and mutates nothing, so it is safe inside the fan-out.
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
