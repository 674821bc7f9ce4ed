package experiments

import (
	"fmt"
	"io"
	"math"

	"quasar/internal/cluster"
	"quasar/internal/core"
	"quasar/internal/loadgen"
	"quasar/internal/perfmodel"
	"quasar/internal/slo"
	"quasar/internal/workload"
)

// The SLO detection experiment scores the burn-rate alerting pipeline
// against scripted ground truth: a deterministic crash storm takes down
// servers whose resident workloads are recorded at the instant of the crash,
// and every page the SLO engine fires is attributed (or not) to one of those
// outages. Because the faults are scripted rather than drawn from the chaos
// RNG, precision, recall, and detection latency are exact — no inference
// about what "really" went wrong is needed.

// SLODetectConfig sizes the detection experiment.
type SLODetectConfig struct {
	// Workload mix. Services are pinned to one node each (MaxNodes 1) under
	// a load one node can comfortably serve: losing that node is a total
	// capacity loss, so a crash is a clean ground-truth SLO violation, while
	// the otherwise comfortable cluster keeps the no-fault baseline quiet.
	Services   int
	SingleNode int
	Batch      int
	BestEffort int

	HorizonSecs float64
	Seed        int64

	// Crash storm script: Crashes one-shot crash events starting at
	// FirstCrashAt, CrashEverySecs apart, each restarting after OutageSecs.
	// SpareCrashes widens each event into a correlated failure: alongside
	// the victim, the SpareCrashes servers holding the most free cores go
	// down in the same event (a rack-style blast). Without it the manager
	// re-places the displaced service within one monitoring tick — correct
	// behavior, but it leaves nothing sustained for the alerting to score;
	// taking out the spare capacity is what makes the outage real.
	Crashes        int
	SpareCrashes   int
	FirstCrashAt   float64
	CrashEverySecs float64
	OutageSecs     float64

	// GraceSecs extends each outage's attribution window past the restart:
	// a page fired while the displaced work is still recovering counts as a
	// true positive.
	GraceSecs float64
	// ScoreFromSecs is the steady-state cutoff: alerts fired before it are
	// admission/ramp-up turbulence — real violations the monitor correctly
	// reports, but not part of the injected ground truth — and are counted
	// separately instead of entering precision (default: 500s before the
	// first crash).
	ScoreFromSecs float64
	// MinSustainedSecs is the measured-badness bar for scoring an outage in
	// recall: an outage only warrants a page if some impacted latency-
	// critical workload actually stayed bad this long. The default is one
	// monitoring tick past the page rule's minimum time-to-fire (30s), since
	// an outage lasting exactly the minimum straddles the tick boundary and
	// may legitimately fire or not depending on phase. A crash the scheduler
	// heals faster than that must NOT page — the burn windows suppressing it
	// is the alerting design working, so such outages are excluded from the
	// denominator.
	MinSustainedSecs float64

	Detector core.DetectorOptions
	Trace    bool
}

// DefaultSLODetectConfig returns the canned crash-storm scenario.
func DefaultSLODetectConfig() SLODetectConfig {
	return SLODetectConfig{
		Services: 6, SingleNode: 30, Batch: 4, BestEffort: 0,
		HorizonSecs: 10000, Seed: 8,
		Crashes: 4, SpareCrashes: 2, FirstCrashAt: 3600, CrashEverySecs: 1200, OutageSecs: 420,
		GraceSecs: 240, MinSustainedSecs: 35,
		Detector: core.DefaultDetectorOptions(),
	}
}

// CrashOutage is one scripted crash with its ground truth: the non-best-
// effort workloads resident at the instant the server went down, and when
// each detection channel noticed.
type CrashOutage struct {
	Server int `json:"server"`
	// Spares are the correlated-failure companions taken down in the same
	// event: the emptiest servers at crash time (see SpareCrashes).
	Spares    []int   `json:"spares,omitempty"`
	At        float64 `json:"at"`
	RestartAt float64 `json:"restart_at"`
	// Impacted are the non-best-effort workloads resident at crash time;
	// ImpactedLC is the latency-critical subset.
	Impacted   []string `json:"impacted"`
	ImpactedLC []string `json:"impacted_lc"`
	// HBDetectAt is the first monitoring tick on which the heartbeat
	// detector believed the server dead (-1 = never), PageAt the first true-
	// positive page fire attributed to this outage (-1 = none).
	HBDetectAt float64 `json:"hb_detect_at"`
	PageAt     float64 `json:"page_at"`
	// SustainedSecs is the longest contiguous measured-bad run any impacted
	// latency-critical workload suffered inside the attribution window,
	// recomputed post-run from the raw QoS stream (displaced ticks count as
	// bad). It decides whether the outage warranted a page at all.
	SustainedSecs float64 `json:"sustained_secs"`
}

// SLODetectResult scores the alert stream against the scripted ground truth.
type SLODetectResult struct {
	Workloads   int     `json:"workloads"`
	Services    int     `json:"services"`
	HorizonSecs float64 `json:"horizon_secs"`

	Outages []CrashOutage `json:"outages"`

	PagesFired   int `json:"pages_fired"`
	TicketsFired int `json:"tickets_fired"`
	// UnscoredAlerts counts episodes outside the scripted ground truth:
	// fired before the steady-state cutoff (admission/ramp-up turbulence) or
	// on non-latency-critical ballast (throughput jobs packed in to hold
	// capacity, whose chronic contention alerts are genuine but unscripted).
	// They are reported, not scored (see SLODetectConfig.ScoreFromSecs).
	UnscoredAlerts int `json:"unscored_alerts"`

	// Precision: fraction of fired pages that land inside some outage's
	// attribution window on an impacted workload.
	TruePositivePages  int     `json:"true_positive_pages"`
	FalsePositivePages int     `json:"false_positive_pages"`
	Precision          float64 `json:"precision"`
	// Recall: fraction of scored outages (impacted latency-critical work
	// measurably bad for at least MinSustainedSecs) that produced at least
	// one true-positive page.
	DetectedOutages int     `json:"detected_outages"`
	ScoredOutages   int     `json:"scored_outages"`
	Recall          float64 `json:"recall"`

	// Detection latency, averaged over outages both channels detected: the
	// page MTTD is fire-time minus crash-time, the heartbeat MTTD is
	// dead-belief time minus crash-time (quantized to the monitoring tick).
	PageMTTDSecs float64 `json:"page_mttd_secs"`
	HBMTTDSecs   float64 `json:"hb_mttd_secs"`
}

// steadyServiceLoad derives a flat offered load from modeled capacity
// rather than Target.QPS: 55% of the QPS a whole machine of the cluster's
// biggest platform sustains at the target tail latency. What that
// guarantees is headroom on one such machine free of interference,
// whatever the declared target. It does not keep the no-fault baseline
// violation-free: in a full cluster a service can be admitted onto smaller
// partial allocations and stay below QoS with no move left, and ROADMAP.md
// item 19 counts 82 of 288 monitored services with a pre-fault bad run of
// at least 300 s over seeds 1–48.
func steadyServiceLoad(s *Scenario, w *workload.Instance) loadgen.Pattern {
	big := s.RT.Cl.Servers[0].Platform
	for _, sv := range s.RT.Cl.Servers {
		if sv.Platform.Cores > big.Cores {
			big = sv.Platform
		}
	}
	alloc := cluster.Alloc{Cores: big.Cores, MemoryGB: big.MemoryGB}
	capQPS := w.CapacityQPS([]perfmodel.NodeAlloc{{Platform: big, Alloc: alloc}})
	return loadgen.Flat{QPS: 0.55 * w.Genome.QPSAtQoS(capQPS, w.Target.LatencyUS)}
}

// submitSLODetectMix submits the mix: one-node services under conservative
// steady load, batch and single-node texture with generous slack, and
// best-effort filler (unmonitored by construction).
func submitSLODetectMix(s *Scenario, cfg SLODetectConfig) {
	at := 0.0
	submit := func(spec workload.Spec) {
		w := s.U.New(spec)
		var load loadgen.Pattern
		if w.Type.Class() == perfmodel.LatencyCritical {
			load = steadyServiceLoad(s, w)
		}
		s.RT.Submit(w, at, load)
		at += 5
	}
	svcTypes := []workload.Type{workload.Webserver, workload.Memcached, workload.Cassandra}
	for i := 0; i < cfg.Services; i++ {
		submit(workload.Spec{Type: svcTypes[i%3], Family: -1, MaxNodes: 1})
	}
	for i := 0; i < cfg.Batch; i++ {
		submit(workload.Spec{Type: workload.Hadoop, Family: i % 3, MaxNodes: 3, TargetSlack: 2.0,
			Dataset: workload.Dataset{Name: "sloexp", SizeGB: 20, WorkMult: 1.5, MemMult: 1}})
	}
	// Long-running, hence horizon-spanning, targeted single-node jobs: they
	// are not evictable (only best-effort work is), so they hold the spare
	// capacity a displaced service would otherwise instantly re-place into.
	for i := 0; i < cfg.SingleNode; i++ {
		submit(workload.Spec{Type: workload.SingleNode, Family: -1, TargetSlack: 1.8,
			Dataset: workload.Dataset{Name: "sloexp-long", SizeGB: 10, WorkMult: 30, MemMult: 1}})
	}
	for i := 0; i < cfg.BestEffort; i++ {
		submit(workload.Spec{Type: workload.SingleNode, Family: -1, BestEffort: true})
	}
}

// pickVictim chooses the crash target: the up, unscripted server hosting the
// largest latency-critical footprint (by allocated cores) among services not
// impacted by an earlier crash in the storm — re-hitting a service whose page
// is still active would be masked by alert deduplication and score nothing.
// Ties go to the lowest server ID; servers with no fresh latency-critical
// placement fall back behind those with one. Returns -1 when no server hosts
// any non-best-effort work.
func pickVictim(rt *core.Runtime, down map[int]bool, hit map[string]bool) int {
	best, bestFresh, bestCores, bestAny := -1, 0, 0.0, 0
	for _, sv := range rt.Cl.Servers {
		if down[sv.ID] || !sv.Up() {
			continue
		}
		fresh, any := 0, 0
		cores := 0.0
		for _, pl := range sv.Placements() {
			t := rt.Task(pl.WorkloadID)
			if t == nil || t.W.BestEffort {
				continue
			}
			any++
			if t.W.Type.Class() == perfmodel.LatencyCritical && !hit[pl.WorkloadID] {
				fresh++
				cores += float64(pl.Alloc.Cores)
			}
		}
		if any == 0 {
			continue
		}
		var better bool
		switch {
		case fresh > 0 && bestFresh > 0:
			better = cores > bestCores
		case fresh > 0:
			better = true
		case bestFresh == 0:
			better = best < 0 || any > bestAny
		}
		if better {
			best, bestFresh, bestCores, bestAny = sv.ID, fresh, cores, any
		}
	}
	return best
}

// downNow merges the storm-wide down set with the servers already claimed
// by the current event, so successive spare picks don't repeat.
func downNow(a, b map[int]bool) map[int]bool {
	m := make(map[int]bool, len(a)+len(b))
	for id := range a {
		m[id] = true
	}
	for id := range b {
		m[id] = true
	}
	return m
}

// pickSpare chooses a correlated-failure companion: the up, unscripted
// server (victim excluded) with the most unallocated cores — the exact
// headroom a displaced service would be re-placed into. Servers hosting a
// latency-critical placement are skipped: spares are capacity sinks, not
// extra victims, so each event keeps exactly one ground-truth service
// displacement. Ties go to the lowest server ID. Returns -1 when no
// LC-free server is up.
func pickSpare(rt *core.Runtime, down map[int]bool, victim int) int {
	best, bestFree := -1, -1.0
	for _, sv := range rt.Cl.Servers {
		if sv.ID == victim || down[sv.ID] || !sv.Up() {
			continue
		}
		used, lc := 0.0, false
		for _, pl := range sv.Placements() {
			used += float64(pl.Alloc.Cores)
			if t := rt.Task(pl.WorkloadID); t != nil &&
				t.W.Type.Class() == perfmodel.LatencyCritical {
				lc = true
			}
		}
		if lc {
			continue
		}
		if free := float64(sv.Platform.Cores) - used; free > bestFree {
			best, bestFree = sv.ID, free
		}
	}
	return best
}

// SLODetect runs the crash-storm detection experiment.
func SLODetect(cfg SLODetectConfig) (*SLODetectResult, error) {
	s, err := NewScenario(ScenarioConfig{
		Cluster: Local40, Manager: KindQuasar, Seed: cfg.Seed,
		MaxNodes: 3, SeedLib: 3, Trace: cfg.Trace, SLO: true,
	})
	if err != nil {
		return nil, err
	}
	if cfg.MinSustainedSecs <= 0 {
		cfg.MinSustainedSecs = 35
	}
	if cfg.ScoreFromSecs <= 0 {
		cfg.ScoreFromSecs = cfg.FirstCrashAt - 500
	}
	rt := s.RT
	rt.EnableFailureDetector(cfg.Detector)
	submitSLODetectMix(s, cfg)

	// Script the storm. Each closure captures ground truth (the resident
	// set) and applies the crash in the same simulation event, so the
	// recorded impact is exact.
	var outages []*CrashOutage
	down := make(map[int]bool)
	hit := make(map[string]bool)
	for k := 0; k < cfg.Crashes; k++ {
		at := cfg.FirstCrashAt + float64(k)*cfg.CrashEverySecs
		rt.Eng.Schedule(at, func() {
			sv := pickVictim(rt, down, hit)
			if sv < 0 {
				return
			}
			ev := &CrashOutage{
				Server: sv, At: at, RestartAt: at + cfg.OutageSecs,
				HBDetectAt: -1, PageAt: -1,
			}
			// The event's blast radius: the victim plus the SpareCrashes
			// emptiest servers. Spares are picked before anything goes down
			// so the headroom snapshot matches what the manager would have
			// re-placed into.
			servers := []int{sv}
			downed := map[int]bool{sv: true}
			for j := 0; j < cfg.SpareCrashes; j++ {
				sp := pickSpare(rt, downNow(down, downed), sv)
				if sp < 0 {
					break
				}
				servers = append(servers, sp)
				downed[sp] = true
				ev.Spares = append(ev.Spares, sp)
			}
			for _, id := range servers {
				for _, pl := range rt.Cl.Servers[id].Placements() {
					t := rt.Task(pl.WorkloadID)
					if t == nil || t.W.BestEffort {
						continue
					}
					ev.Impacted = append(ev.Impacted, pl.WorkloadID)
					hit[pl.WorkloadID] = true
					if t.W.Type.Class() == perfmodel.LatencyCritical {
						ev.ImpactedLC = append(ev.ImpactedLC, pl.WorkloadID)
					}
				}
			}
			outages = append(outages, ev)
			for _, id := range servers {
				id := id
				down[id] = true
				rt.CrashServer(id)
				rt.Eng.Schedule(ev.RestartAt, func() {
					rt.RestartServer(id)
					delete(down, id)
				})
			}
		})
	}
	// Record when the operator-visible heartbeat detector catches each
	// crash (sampled at tick granularity, like the SLO engine itself).
	rt.AddTickListener(func(now float64) {
		for _, ev := range outages {
			if ev.HBDetectAt >= 0 || now < ev.At {
				continue
			}
			if rt.Cl.Servers[ev.Server].Det() == cluster.DetDead {
				ev.HBDetectAt = now
			}
		}
	})

	rt.Run(cfg.HorizonSecs)
	rt.Stop()
	return scoreSLODetect(cfg, s, outages), nil
}

// attributes reports whether a page on workload wl fired at ft lies inside
// the outage's attribution window.
func (ev *CrashOutage) attributes(wl string, ft, grace float64) bool {
	if ft < ev.At || ft > ev.RestartAt+grace {
		return false
	}
	for _, id := range ev.Impacted {
		if id == wl {
			return true
		}
	}
	return false
}

// maxBadRunSecs walks the monitoring-tick grid over [from, to] and returns
// the longest contiguous run, in seconds, on which the workload's measured
// SLI was bad: a QoS sample below the met threshold, or no sample at all (a
// started service skips ticks only while displaced). The walk stops at
// completion. This recomputes ground truth from the raw stream, independent
// of the SLO engine's incremental window state.
func maxBadRunSecs(rt *core.Runtime, t *core.Task, from, to float64) float64 {
	tick := rt.TickSecs()
	if t.DoneAt > 0 && t.DoneAt < to {
		to = t.DoneAt
	}
	qf := t.QoSFrac
	i := 0
	run, best := 0.0, 0.0
	const eps = 1e-6
	for at := from; at <= to+eps; at += tick {
		for i < qf.Len() && qf.Times[i] < at-eps {
			i++
		}
		bad := true
		if i < qf.Len() && qf.Times[i] <= at+eps {
			bad = qf.Vals[i] < slo.QoSMetFraction
		}
		if bad {
			run += tick
			if run > best {
				best = run
			}
		} else {
			run = 0
		}
	}
	return best
}

func scoreSLODetect(cfg SLODetectConfig, s *Scenario, outages []*CrashOutage) *SLODetectResult {
	res := &SLODetectResult{
		Workloads:   cfg.Services + cfg.SingleNode + cfg.Batch + cfg.BestEffort,
		Services:    cfg.Services,
		HorizonSecs: cfg.HorizonSecs,
	}
	for _, ep := range s.SLO.Episodes() {
		t := s.RT.Task(ep.Workload)
		if ep.FireAt < cfg.ScoreFromSecs ||
			t == nil || t.W.Type.Class() != perfmodel.LatencyCritical {
			// Outside the scripted ground truth, which is defined on the
			// latency-critical services in steady state: ramp-up turbulence
			// and ballast-job contention alerts are genuine but unscripted.
			res.UnscoredAlerts++
			continue
		}
		if ep.Rule != "page" {
			res.TicketsFired++
			continue
		}
		res.PagesFired++
		matched := false
		for _, ev := range outages {
			if !ev.attributes(ep.Workload, ep.FireAt, cfg.GraceSecs) {
				continue
			}
			matched = true
			if ev.PageAt < 0 || ep.FireAt < ev.PageAt {
				ev.PageAt = ep.FireAt
			}
		}
		if matched {
			res.TruePositivePages++
		} else {
			res.FalsePositivePages++
		}
	}
	if res.PagesFired > 0 {
		res.Precision = float64(res.TruePositivePages) / float64(res.PagesFired)
	}

	pageSum, hbSum, both := 0.0, 0.0, 0
	for _, ev := range outages {
		for _, id := range ev.ImpactedLC {
			t := s.RT.Task(id)
			if t == nil {
				continue
			}
			if run := maxBadRunSecs(s.RT, t, ev.At, ev.RestartAt+cfg.GraceSecs); run > ev.SustainedSecs {
				ev.SustainedSecs = run
			}
		}
		res.Outages = append(res.Outages, *ev)
		if len(ev.ImpactedLC) == 0 || ev.SustainedSecs < cfg.MinSustainedSecs {
			continue
		}
		res.ScoredOutages++
		if ev.PageAt >= 0 {
			res.DetectedOutages++
		}
		if ev.PageAt >= 0 && ev.HBDetectAt >= 0 {
			pageSum += ev.PageAt - ev.At
			hbSum += ev.HBDetectAt - ev.At
			both++
		}
	}
	if res.ScoredOutages > 0 {
		res.Recall = float64(res.DetectedOutages) / float64(res.ScoredOutages)
	}
	if both > 0 {
		res.PageMTTDSecs = pageSum / float64(both)
		res.HBMTTDSecs = hbSum / float64(both)
	} else {
		res.PageMTTDSecs = math.NaN()
		res.HBMTTDSecs = math.NaN()
	}
	return res
}

// Print renders the detection report.
func (r *SLODetectResult) Print(w io.Writer) {
	fprintf(w, "== SLO alert detection vs scripted crash storm (Quasar, local cluster) ==\n")
	fprintf(w, "%d workloads (%d services), %.0fs horizon, %d scripted outages\n",
		r.Workloads, r.Services, r.HorizonSecs, len(r.Outages))
	for _, ev := range r.Outages {
		page := "no page"
		if ev.PageAt >= 0 {
			page = fmt.Sprintf("page +%.0fs", ev.PageAt-ev.At)
		}
		hb := "undetected"
		if ev.HBDetectAt >= 0 {
			hb = fmt.Sprintf("hb-dead +%.0fs", ev.HBDetectAt-ev.At)
		}
		blast := ""
		if len(ev.Spares) > 0 {
			blast = fmt.Sprintf("+%d spares ", len(ev.Spares))
		}
		fprintf(w, "  t=%5.0fs server %2d %sdown %.0fs: %d impacted (%d LC, %.0fs sustained) — %s, %s\n",
			ev.At, ev.Server, blast, ev.RestartAt-ev.At, len(ev.Impacted), len(ev.ImpactedLC),
			ev.SustainedSecs, page, hb)
	}
	fprintf(w, "pages: %d fired, %d true / %d false -> precision %.2f (%d unscored: warm-up/ballast)\n",
		r.PagesFired, r.TruePositivePages, r.FalsePositivePages, r.Precision, r.UnscoredAlerts)
	fprintf(w, "outage recall: %d/%d (%.2f); tickets fired: %d\n",
		r.DetectedOutages, r.ScoredOutages, r.Recall, r.TicketsFired)
	fprintf(w, "detection latency: page MTTD %.0fs vs heartbeat MTTD %.0fs\n",
		r.PageMTTDSecs, r.HBMTTDSecs)
}
