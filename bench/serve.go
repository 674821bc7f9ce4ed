package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"quasar/internal/experiments"
	"quasar/internal/obs"
	"quasar/internal/serve"
	"quasar/internal/sim"
	"quasar/internal/workload"
)

// serveWorld is the daemon-side world both serve_* workloads share: big
// enough that set-up (library profiling, classifier training) is measurable.
// SeedLib 12 gives the classifier 84 rows from the start; below 81 rows
// every retraining is a short-fat SVD of ~250 ms, which stalls the daemon's
// engine lock and with it every reader.
func serveWorld(quick bool, seed int64, epochSecs float64) serve.Config {
	cfg := serve.Config{Servers: 200, Seed: seed, SeedLib: 12, SLO: true, EpochSecs: epochSecs, MaxNodes: 4}
	if quick {
		cfg.Servers, cfg.SeedLib = 40, 1
	}
	return cfg
}

// serveDataset keeps submitted jobs short (tens of sim-seconds), so the
// population a run builds up stays bounded and the world stays far from
// saturation: the serve_* workloads measure the request, journal and trace
// paths, not a congested scheduler (sim_scale_churn does that).
var serveDataset = &workload.Dataset{Name: "serve", SizeGB: 5, WorkMult: 0.05, MemMult: 0.8}

// typeNamed maps a wire type name back to the workload type.
var typeNamed = func() map[string]workload.Type {
	m := map[string]workload.Type{}
	for t := workload.Type(0); t < workload.NumTypes; t++ {
		m[t.String()] = t
	}
	return m
}()

// bestEffortSubmit is the filler submission most of the mix consists of.
func bestEffortSubmit() *serve.SubmitRequest {
	return &serve.SubmitRequest{Type: workload.SingleNode.String(), Family: -1, BestEffort: true, Dataset: serveDataset}
}

// targetedSubmit is the k-th submission with a real performance target. All
// seven types appear, but most are single-node jobs that finish within a
// few ticks: an analytics job lives ~300 sim-s whatever its dataset and a
// service never finishes, so they are three in fifty and one in fifty.
func targetedSubmit(k int) *serve.SubmitRequest {
	req := &serve.SubmitRequest{Type: workload.SingleNode.String(), Family: -1, TargetSlack: 2.0, Dataset: serveDataset}
	switch k % 50 {
	case 3:
		services := []workload.Type{workload.Memcached, workload.Cassandra, workload.Webserver}
		req = &serve.SubmitRequest{Type: services[k/50%3].String(), Family: -1, MaxNodes: 1}
	case 10:
		req.Type, req.MaxNodes = workload.Hadoop.String(), 2
	case 27:
		req.Type, req.MaxNodes = workload.Spark.String(), 2
	case 44:
		req.Type, req.MaxNodes = workload.Storm.String(), 2
	}
	return req
}

// qosTracker derives the served-and-meeting-QoS share of non-best-effort
// workloads from the sim-plane event stream alone — the only view of a
// serve world the bench has. A workload's share is the part of its life
// (submit to completion, or to the end of the run) during which it held at
// least one placement and was not in a qos-miss state.
type qosTracker struct {
	w     map[string]*qosState
	order []*qosState // submission order: a float sum must not depend on map iteration
}

type qosState struct {
	submitAt, since, good, endAt float64
	placements                   int
	missing, done                bool
}

func newQoSTracker() *qosTracker { return &qosTracker{w: map[string]*qosState{}} }

// advance books the time since the last state change.
func (s *qosState) advance(t float64) {
	if s.placements > 0 && !s.missing && t > s.since {
		s.good += t - s.since
	}
	s.since = t
}

// event feeds one sim-plane event: its time, category, name, track, async
// span name, phase, and (for submits) whether the workload is best-effort.
func (q *qosTracker) event(t float64, cat, name, track, phase string, bestEffort bool) {
	switch {
	case cat == "lifecycle" && name == "submit":
		if !bestEffort {
			id := strings.TrimPrefix(track, "workload/")
			st := &qosState{submitAt: t, since: t} //lint:allow(hotalloc) once per non-best-effort workload, in a bench-side observer
			q.w[id] = st
			q.order = append(q.order, st)
		}
	case cat == "placement" && (phase == "b" || phase == "e"):
		// Async placement spans are named after the workload.
		if s := q.w[name]; s != nil && !s.done {
			s.advance(t)
			if phase == "b" {
				s.placements++
			} else if s.placements > 0 {
				s.placements--
			}
		}
	case cat == "qos":
		if s := q.w[strings.TrimPrefix(track, "workload/")]; s != nil && !s.done {
			s.advance(t)
			s.missing = name == "qos-miss"
		}
	case cat == "lifecycle" && name == "complete":
		if s := q.w[strings.TrimPrefix(track, "workload/")]; s != nil && !s.done {
			s.advance(t)
			s.done, s.endAt = true, t
		}
	}
}

// share closes every open workload at endT and returns the mean share.
func (q *qosTracker) share(endT float64) float64 {
	sum, n := 0.0, 0
	for _, s := range q.order {
		if !s.done {
			s.advance(endT)
			s.endAt = endT
		}
		if life := s.endAt - s.submitAt; life > 0 {
			sum += s.good / life
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// observer is the no-op obs.Sink passed to serve.Replay: it retains nothing
// and only watches the deterministic event stream go by — apply instants
// (the op boundaries), apply errors, classification and decision counts, and
// the events the qosTracker needs. Close reads the registry's own summary
// of the utilisation series.
type observer struct {
	rec       *recorder
	lastApply time.Time
	gapsMS    []float64
	applied   int
	errors    int
	classify  int
	reclass   int
	decisions int
	decFailed int
	cands     int
	events    int
	qos       *qosTracker
	usedMean  float64
	closed    bool
}

func (o *observer) Start(*obs.Header) error { return nil }

func (o *observer) Emit(ev *obs.Event, _ int) error {
	o.events++
	switch ev.Cat {
	case "serve":
		now := time.Now()
		o.gapsMS = append(o.gapsMS, float64(now.Sub(o.lastApply).Nanoseconds())/1e6)
		o.lastApply = now
		o.applied++
		if ev.Name == "serve.apply-error" {
			o.errors++
		}
		if o.rec != nil {
			// One op ends and the next begins at every applied entry.
			o.rec.end()
			o.rec.nextOp()
			o.rec.begin("serve.replay_op")
		}
	case "classify":
		if ev.Name == "reclassify" {
			o.reclass++
		} else {
			o.classify++
		}
	case "sched":
		if d, ok := argOf(ev.Args, "decision").(obs.ScheduleDecision); ok {
			o.decisions++
			o.cands += len(d.Candidates) + d.CandidatesDropped
			if d.Outcome != obs.OutcomePlaced {
				o.decFailed++
			}
		}
	case "lifecycle", "placement", "qos":
		be, _ := argOf(ev.Args, "best_effort").(bool)
		o.qos.event(ev.Time, ev.Cat, ev.Name, ev.Track, string(ev.Phase), be)
	}
	return nil
}

func (o *observer) Close(reg *obs.Registry) error {
	if o.closed {
		return nil
	}
	o.closed = true
	var buf bytes.Buffer
	if err := obs.WritePromRegistry(&buf, reg); err != nil {
		return err
	}
	o.usedMean = promValue(buf.Bytes(), "cluster_used_cores_frac_mean")
	return nil
}

func (o *observer) RetainedBytes() (cur, high int) { return 0, 0 }

func argOf(args []obs.Arg, key string) any {
	for _, a := range args {
		if a.Key == key {
			return a.Val
		}
	}
	return nil
}

// promValue returns the value of the first sample whose line starts with
// name (including any label set) in a Prometheus text exposition, or 0.
func promValue(text []byte, name string) float64 {
	for _, line := range bytes.Split(text, []byte{'\n'}) {
		if !bytes.HasPrefix(line, []byte(name)) {
			continue
		}
		rest := line[len(name):]
		if len(rest) == 0 || (rest[0] != ' ' && rest[0] != '{') {
			continue
		}
		if i := bytes.LastIndexByte(rest, ' '); i >= 0 {
			if v, err := strconv.ParseFloat(string(rest[i+1:]), 64); err == nil {
				return v
			}
		}
	}
	return 0
}

var serveReplay = workloadDef{
	name:     "serve_replay",
	why:      "crash recovery: replay a journal of submits and evicts into a full-fidelity trace file; journal read, per-submit classify+schedule and trace encoding do the work, no journal is written",
	refUnits: 3,
	prepare:  prepareReplay,
}

// replayEntries is the journal length of one refSeconds/refUnits unit.
const replayEntries = 9000

// replayScript generates the journal script from the seed: one entry per
// epoch (so the gap between consecutive applies is one entry's whole cost:
// apply, classification, scheduling, and the engine up to the next epoch),
// 60% best-effort submits, 20% targeted submits across all seven types, 20%
// evictions of a best-effort workload submitted earlier and not yet evicted.
func replayScript(c unitCtx, cfg serve.Config, n int) (script []serve.ScriptEntry, ids []string) {
	rng := sim.NewRNG(c.seed).Stream(fmt.Sprintf("serve_replay/%d", c.index))
	kinds := make([]int, n)
	for i := range kinds {
		kinds[i] = i % 5 // 0,1,2 best-effort; 3 targeted; 4 evict
	}
	order := rng.Stream("order")
	order.Shuffle(n, func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	pick := rng.Stream("evict")
	ordinal := 7 * cfg.SeedLib
	var evictable []string
	targeted := 0
	for i, k := range kinds {
		at := float64(i + 1)
		if k == 4 && len(evictable) == 0 {
			k = 0
		}
		switch k {
		case 4:
			j := pick.Intn(len(evictable))
			script = append(script, serve.ScriptEntry{At: at, Evict: evictable[j]})
			evictable[j] = evictable[len(evictable)-1]
			evictable = evictable[:len(evictable)-1]
		case 3:
			req := targetedSubmit(targeted)
			targeted++
			ordinal++
			ids = append(ids, fmt.Sprintf("%s-%04d", req.Type, ordinal))
			script = append(script, serve.ScriptEntry{At: at, Submit: req})
		default:
			ordinal++
			id := fmt.Sprintf("%s-%04d", workload.SingleNode, ordinal)
			ids = append(ids, id)
			evictable = append(evictable, id)
			script = append(script, serve.ScriptEntry{At: at, Submit: bestEffortSubmit()})
		}
	}
	return script, ids
}

// prepareReplay generates the script, writes the journal a crashed daemon
// would have left behind, and validates it against a reference world built
// like the daemon's (same seed, same offline library): minted in script
// order, every submission must get the workload id the journal promised and,
// when targeted, a valid derived target — replay treats a mismatch as fatal.
// The replayed world itself is rebuilt inside serve.Replay, as it is after a
// real crash, so that cost belongs to the run.
func prepareReplay(c unitCtx) (*prepared, error) {
	cfg := serveWorld(c.quick, 20140304, 1)
	n := replayEntries
	if c.quick {
		n = 150
	}
	script, want := replayScript(c, cfg, n)
	journal := filepath.Join(c.dir, "journal.jsonl")
	ids, err := serve.BuildJournal(journal, cfg, float64(n+30), script)
	if err != nil {
		return nil, err
	}
	ref, err := referenceWorld(cfg)
	if err != nil {
		return nil, err
	}
	if len(ids) != len(want) {
		return nil, fmt.Errorf("journal promised %d workload ids, script expected %d", len(ids), len(want))
	}
	next := 0
	for _, se := range script {
		if se.Submit == nil {
			continue
		}
		w := ref.U.New(workload.Spec{
			Type: typeNamed[se.Submit.Type], Family: se.Submit.Family, BestEffort: se.Submit.BestEffort,
			TargetSlack: se.Submit.TargetSlack, MaxNodes: se.Submit.MaxNodes, Dataset: datasetOf(se.Submit),
		})
		if w.ID != ids[next] || w.ID != want[next] {
			return nil, fmt.Errorf("submit %d: journal promised %s, script expected %s, reference world minted %s", next, ids[next], want[next], w.ID)
		}
		if err := w.Validate(); err != nil {
			return nil, err
		}
		next++
	}
	run := func() (*unitResult, error) { return runReplay(c, cfg, ref, journal, len(script)) }
	return &prepared{run: run, close: func() {}}, nil
}

// referenceWorld builds a simulator world the way internal/serve builds the
// daemon's: same cluster, seed and offline library, classifier trained. The
// serve worlds themselves are private to that package; this twin validates
// generated inputs at set-up and hosts the micro-probes of traced runs.
func referenceWorld(cfg serve.Config) (*experiments.Scenario, error) {
	s, err := experiments.NewScenario(experiments.ScenarioConfig{
		Servers: cfg.Servers, Manager: experiments.KindQuasar, Seed: cfg.Seed,
		SeedLib: cfg.SeedLib, MaxNodes: cfg.MaxNodes, TickSecs: tickSecs,
	})
	if err != nil {
		return nil, fmt.Errorf("reference world: %w", err)
	}
	s.RT.Stop()
	s.Q.Engine().EnsureTrained()
	return s, nil
}

func datasetOf(r *serve.SubmitRequest) workload.Dataset {
	if r.Dataset == nil {
		return workload.Dataset{}
	}
	return *r.Dataset
}

// runReplay is the measured unit: one serve.Replay with the full-fidelity
// trace streamed to a file.
func runReplay(c unitCtx, cfg serve.Config, ref *experiments.Scenario, journal string, entries int) (*unitResult, error) {
	tracePath := filepath.Join(c.dir, "replay-trace.jsonl")
	stream, err := obs.NewStreamSink(tracePath)
	if err != nil {
		return nil, err
	}
	ob := &observer{rec: c.rec, qos: newQoSTracker(), gapsMS: make([]float64, 0, entries)}
	var sink obs.Sink = stream
	var timed *timedSink
	if c.rec != nil {
		timed = &timedSink{inner: stream, rec: c.rec}
		sink = timed
		c.rec.nextOp()
		c.rec.begin("serve.replay_op")
	}
	m := startMeter()
	ob.lastApply = m.start
	res, err := serve.Replay(journal, serve.ReplayOptions{Sinks: []obs.Sink{ob, sink}})
	if c.rec != nil {
		c.rec.end()
	}
	if err != nil {
		stream.Discard()
		return nil, err
	}
	ur := &unitResult{opMS: ob.gapsMS}
	ur.wallS, ur.cpuMS, ur.allocKB = m.stop()
	ur.heapEndMB = heapEndMB()
	runtime.KeepAlive(res)

	ur.attempted, ur.failed = entries, ob.errors
	if res.Applied != entries || ob.applied != entries {
		ur.problems = append(ur.problems, fmt.Sprintf("replay applied %d entries (%d seen on the trace), journal holds %d", res.Applied, ob.applied, entries))
	}
	if res.Truncated {
		ur.problems = append(ur.problems, "journal replayed as truncated")
	}
	ur.qosMet = ob.qos.share(res.EndAt)
	ur.cpuUtil = ob.usedMean
	if ur.cpuUtil <= 0 || ur.qosMet <= 0 {
		ur.problems = append(ur.problems, "no utilisation or no target ever met")
	}
	h := sha256.New()
	_, _ = h.Write(res.ManagerState) // hash.Hash.Write never fails
	fprintf(h, "%d/%d/%d/%g/%g", ob.events, stream.BytesWritten(), res.AppliedSeq, ur.qosMet, ur.cpuUtil)
	ur.hash = hex.EncodeToString(h.Sum(nil))[:16]

	if c.rec != nil {
		l := map[string]float64{
			"trace.run_wall_s":           ur.wallS,
			"classify.classify_calls":    float64(ob.classify),
			"classify.reclassify_calls":  float64(ob.reclass),
			"sched.decisions":            float64(ob.decisions),
			"sched.decisions_failed":     float64(ob.decFailed),
			"obs.events":                 float64(timed.events),
			"obs.bytes":                  float64(stream.BytesWritten()),
			"obs.emit_s":                 float64(timed.emitNS) / 1e9,
			"obs.close_s":                timed.closeS,
			"serve.replay_entries_per_s": float64(entries) / ur.wallS,
		}
		if timed.events > 0 {
			l["obs.emit_ns_per_event"] = float64(timed.emitNS) / float64(timed.events)
		}
		if ob.decisions > 0 {
			l["sched.candidates_mean"] = float64(ob.cands) / float64(ob.decisions)
		}
		if err := probeJournal(l, journal, cfg); err != nil {
			return nil, err
		}
		probeWorld(l, ref)
		ur.layers = l
	}
	return ur, nil // the unit directory, trace file included, is removed by the caller
}

// probeJournal times reading every entry of the journal back
// (JournalReader.Next) and admitting entries into a journal on disk.
func probeJournal(l map[string]float64, journal string, cfg serve.Config) error {
	r, err := serve.OpenJournal(journal)
	if err != nil {
		return err
	}
	defer func() { _ = r.Close() }()
	n := 0
	t0 := time.Now()
	for {
		_, ok, err := r.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		n++
	}
	if n > 0 {
		l["serve.journal_read_us"] = float64(time.Since(t0).Nanoseconds()) / 1e3 / float64(n)
	}
	f, err := os.Create(journal + ".probe")
	if err != nil {
		return err
	}
	defer func() { _ = f.Close() }() // probe output; the unit directory is removed by the caller
	j := serve.NewJournalWriter(f, cfg, 7*cfg.SeedLib+1)
	entry := serve.Entry{Kind: serve.KindSubmit, Submit: bestEffortSubmit()}
	var admitErr error
	d := perCall(5000, func(int) {
		if _, err := j.Admit(entry); err != nil {
			admitErr = err
		}
	})
	l["serve.journal_admit_us"] = float64(d.Nanoseconds()) / 1e3
	return admitErr
}
