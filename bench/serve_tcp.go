package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"quasar/internal/obs"
	"quasar/internal/perfmodel"
	"quasar/internal/serve"
	"quasar/internal/sim"
)

var serveOpenTCP = workloadDef{
	name:     "serve_open_tcp",
	why:      "a request through the real path: open-loop 1000 req/s over loopback TCP into a live daemon; HTTP decode, journal admit/seal/flush, epoch pacing and the trace tee dominate, the engine does little",
	refUnits: 1,
	prepare:  prepareTCP,
}

const (
	// tcpRate is the fixed open-loop arrival rate, requests per second.
	tcpRate = 1000
	// tcpWarp is sim seconds per wall second and tcpEpochSecs the admission
	// epoch: an epoch seals every ~17 ms of wall time, which quantises
	// submit-to-visible latency. (Warp 60 with 1 s epochs has the same wall
	// cadence but packs 17 arrivals into every sim second: best-effort jobs
	// then overflow 200 servers, ~500 of them queue, every completion
	// re-scans queue x servers, and the engine — not the request path —
	// sets the latency: p50 350 ms.)
	tcpWarp      = 240
	tcpEpochSecs = 4
	// visibleTimeout bounds the wait for the last submit to show up on the
	// trace stream; a submit not visible by then is a failed op.
	visibleTimeout = 10 * time.Second
)

// opKind is one request type of the mix.
type opKind int

const (
	opSubmitBE opKind = iota
	opSubmitTargeted
	opEvict
	opTarget
	opGetWorkload
	opListWorkloads
	opHealthz
	opMetrics
)

// mix is the request mix in 1/1000: 50% submits, 25% evictions, 5% target
// updates, 20% reads; /metrics rides on top, once a second. One submit in
// fifty carries a real target. (With one in five, the classifier appends
// 2000 rows in 20 s and retrains ~15 times at 100-250 ms apiece; readers
// wait for the engine lock meanwhile and queue everything behind them on the
// connection, so >5% of requests sit in a stall and p95 becomes the length
// of a retraining — 62-82 ms across seeds — instead of a request latency.)
var mix = []struct {
	kind  opKind
	share int
}{
	{opSubmitBE, 490}, {opSubmitTargeted, 10}, {opEvict, 250}, {opTarget, 50},
	{opGetWorkload, 80}, {opListWorkloads, 60}, {opHealthz, 60},
}

// tcpOp is one scheduled request: when it is due, what it is, and a seeded
// draw that picks its target among the workloads applied so far.
type tcpOp struct {
	due  time.Duration
	kind opKind
	pick float64
	n    int // ordinal among targeted submits
}

// tcpSchedule generates the open-loop schedule from the seed: Poisson
// arrivals at tcpRate for the given duration, kinds drawn from the mix.
func tcpSchedule(seed int64, dur time.Duration) []tcpOp {
	rng := sim.NewRNG(seed).Stream("serve_open_tcp")
	gaps, kinds, picks := rng.Stream("gaps"), rng.Stream("kinds"), rng.Stream("picks")
	var ops []tcpOp
	targeted := 0
	nextMetrics := time.Second / 2
	for at := time.Duration(0); ; {
		at += time.Duration(gaps.Exponential(1.0/tcpRate) * float64(time.Second))
		if at >= dur {
			return ops
		}
		if at >= nextMetrics {
			ops = append(ops, tcpOp{due: at, kind: opMetrics})
			nextMetrics += time.Second
			continue
		}
		draw, kind := kinds.Intn(1000), opHealthz
		for _, m := range mix {
			if draw < m.share {
				kind = m.kind
				break
			}
			draw -= m.share
		}
		op := tcpOp{due: at, kind: kind, pick: picks.Float64()}
		if kind == opSubmitTargeted {
			op.n = targeted
			targeted++
		}
		ops = append(ops, op)
	}
}

// streamView is what the trace-stream subscriber has seen so far. The
// subscriber goroutine writes it, the load generator reads it.
type streamView struct {
	mu        sync.Mutex
	applied   []string             // workloads whose submit was applied, in apply order
	completed map[string]bool      // workloads whose completion was seen
	seenAt    map[string]time.Time // request id -> when its apply reached the subscriber
	applyErrs int
	firstErr  string
	dropped   int64
	lastT     float64
	qos       *qosTracker
	err       error
}

// streamLine is the part of a trace event line the subscriber decodes.
type streamLine struct {
	Seq     uint64  `json:"seq"`
	T       float64 `json:"t"`
	Ph      string  `json:"ph"`
	Cat     string  `json:"cat"`
	Name    string  `json:"name"`
	Track   string  `json:"track"`
	Dropped int64   `json:"stream_dropped"`
	Args    struct {
		Kind       string `json:"kind"`
		Workload   string `json:"workload"`
		Req        string `json:"req"`
		Error      string `json:"error"`
		BestEffort bool   `json:"best_effort"`
	} `json:"args"`
}

// follow reads the NDJSON trace stream until it ends. Scheduler decisions
// (tens of kilobytes each) are skipped on a prefix test without decoding:
// the subscriber must keep up or the daemon drops its batches.
func (v *streamView) follow(body io.Reader) {
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<26)
	for sc.Scan() {
		line := sc.Bytes()
		head := line
		if len(head) > 160 {
			head = head[:160]
		}
		wanted := false
		for _, cat := range []string{`"cat":"serve"`, `"cat":"lifecycle"`, `"cat":"placement"`, `"cat":"qos"`, `"stream_dropped"`} {
			if bytes.Contains(head, []byte(cat)) {
				wanted = true
				break
			}
		}
		if !wanted {
			continue
		}
		var ev streamLine
		if err := json.Unmarshal(line, &ev); err != nil {
			v.fail(fmt.Errorf("trace stream: %w", err))
			return
		}
		now := time.Now()
		v.mu.Lock()
		switch {
		case ev.Seq == 0:
			if ev.Dropped > v.dropped {
				v.dropped = ev.Dropped
			}
		case ev.Cat == "serve":
			v.lastT = ev.T
			v.seenAt[ev.Args.Req] = now
			if ev.Name == "serve.apply-error" {
				v.applyErrs++
				if v.firstErr == "" {
					v.firstErr = ev.Args.Kind + " " + ev.Args.Workload + ": " + ev.Args.Error
				}
			} else if ev.Args.Kind == serve.KindSubmit {
				v.applied = append(v.applied, ev.Args.Workload)
			}
		default:
			v.lastT = ev.T
			if ev.Name == "complete" {
				v.completed[strings.TrimPrefix(ev.Track, "workload/")] = true
			}
			v.qos.event(ev.T, ev.Cat, ev.Name, ev.Track, ev.Ph, ev.Args.BestEffort)
		}
		v.mu.Unlock()
	}
	if err := sc.Err(); err != nil {
		v.fail(fmt.Errorf("trace stream: %w", err))
	}
}

func (v *streamView) fail(err error) {
	v.mu.Lock()
	if v.err == nil {
		v.err = err
	}
	v.mu.Unlock()
}

// appliedSince returns the workloads applied since the caller's cursor.
func (v *streamView) appliedSince(cursor int) []string {
	v.mu.Lock()
	defer v.mu.Unlock()
	return append([]string(nil), v.applied[cursor:]...)
}

// isCompleted reports whether the workload's completion was seen.
func (v *streamView) isCompleted(id string) bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.completed[id]
}

// targets is the load generator's own view of the workloads it may address:
// only ones whose apply was already seen on the stream, classified by what
// the generator itself submitted under that id.
type targets struct {
	cursor    int
	mine      map[string]submitted // promised id -> what the generator submitted under it
	evictable []string             // applied best-effort workloads not yet evicted
	tunable   []string             // applied analytics and latency-critical workloads
	known     []string             // every applied workload
}

// submitted is what the generator knows about a workload it created.
type submitted struct {
	bestEffort bool
	class      perfmodel.Class
}

// refresh pulls newly applied workloads from the stream view.
func (t *targets) refresh(v *streamView) {
	fresh := v.appliedSince(t.cursor)
	t.cursor += len(fresh)
	for _, id := range fresh {
		sub, ok := t.mine[id]
		if !ok {
			continue
		}
		t.known = append(t.known, id)
		switch {
		case sub.bestEffort:
			t.evictable = append(t.evictable, id)
		case sub.class != perfmodel.SingleNode:
			t.tunable = append(t.tunable, id)
		}
	}
}

// take removes and returns the evictable workload the draw selects, so each
// is evicted at most once. Workloads that already completed are dropped on
// the way: evicting one is legal but would re-queue a finished job.
func (t *targets) take(v *streamView, pick float64) (string, bool) {
	for len(t.evictable) > 0 {
		n := len(t.evictable)
		i := int(pick * float64(n))
		id := t.evictable[i]
		t.evictable[i] = t.evictable[n-1]
		t.evictable = t.evictable[:n-1]
		if !v.isCompleted(id) {
			return id, true
		}
	}
	return "", false
}

// choose returns the workload the draw selects from list.
func choose(list []string, pick float64) (string, bool) {
	if len(list) == 0 {
		return "", false
	}
	return list[int(pick*float64(len(list)))], true
}

// pace waits until due and returns how long it spun. Go timers on the
// reference kernel fire ~1.1 ms late for sub-millisecond sleeps — the whole
// mean gap of the schedule — so the tail of every wait is a pure spin. The
// spin is the generator's own CPU and is subtracted from cpu_ms_per_op.
func pace(due time.Time) (spun time.Duration) {
	if d := time.Until(due); d > 1500*time.Microsecond {
		time.Sleep(d - 400*time.Microsecond)
	}
	t0 := time.Now()
	for time.Now().Before(due) {
	}
	return time.Since(t0)
}

// tcpWorld is the prepared unit: a live daemon, one keep-alive client
// connection, one trace-stream subscriber connection, and the schedule.
type tcpWorld struct {
	c       unitCtx
	cfg     serve.Config
	srv     *serve.Server
	served  chan error
	base    string
	client  *http.Client
	view    *streamView
	stream  io.Closer
	flwDone chan struct{}
	ops     []tcpOp
	journal string
	trace   string
	stopped bool
}

// prepareTCP builds the daemon's world, creates its journal and trace file,
// binds the listener, starts serving, attaches the stream subscriber, warms
// the client connection and generates the schedule.
func prepareTCP(c unitCtx) (*prepared, error) {
	w := &tcpWorld{
		c: c, cfg: serveWorld(c.quick, 20140303, tcpEpochSecs),
		journal: filepath.Join(c.dir, "journal.jsonl"), trace: filepath.Join(c.dir, "trace.jsonl"),
		view: &streamView{seenAt: map[string]time.Time{}, completed: map[string]bool{}, qos: newQoSTracker()},
	}
	srv, err := serve.New(serve.Options{
		Addr: "127.0.0.1:0", Config: w.cfg, JournalPath: w.journal, TracePath: w.trace, Warp: tcpWarp,
	})
	if err != nil {
		return nil, err
	}
	w.srv, w.base = srv, "http://"+srv.Addr()
	w.served = make(chan error, 1)
	go func() { w.served <- srv.Serve() }()
	w.client = &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
		Timeout:   10 * time.Second,
	}
	// The subscriber has its own transport: its response never ends, so it
	// must not hold the request connection.
	resp, err := (&http.Client{Transport: &http.Transport{}}).Get(w.base + "/v1/trace/stream")
	if err != nil {
		w.close()
		return nil, err
	}
	w.stream, w.flwDone = resp.Body, make(chan struct{})
	go func() {
		defer close(w.flwDone)
		w.view.follow(resp.Body)
	}()
	if code, _, err := w.do(http.MethodGet, "/healthz", nil); err != nil || code != http.StatusOK {
		w.close()
		return nil, fmt.Errorf("daemon not healthy: status %d, %v", code, err)
	}
	dur := time.Duration(c.seconds * float64(time.Second))
	if c.quick {
		dur = 600 * time.Millisecond
	}
	w.ops = tcpSchedule(c.seed, dur)
	return &prepared{run: w.run, close: w.close}, nil
}

// do performs one request on the keep-alive connection and returns the
// status and body.
func (w *tcpWorld) do(method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, w.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	data, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	return resp.StatusCode, data, err
}

// stop shuts the daemon down and waits for Serve to return.
func (w *tcpWorld) stop() (finalize time.Duration, err error) {
	if w.stopped {
		return 0, nil
	}
	w.stopped = true
	t0 := time.Now()
	w.srv.Shutdown()
	err = <-w.served
	finalize = time.Since(t0)
	if w.stream != nil {
		_ = w.stream.Close()
		<-w.flwDone
	}
	w.client.CloseIdleConnections()
	return finalize, err
}

func (w *tcpWorld) close() { _, _ = w.stop() }

// tcpTimings are the generator's own latency samples, in milliseconds from
// each request's due time.
type tcpTimings struct {
	late    []float64 // due -> sent: how late the generator ran
	submit  []float64 // due -> ack, submits
	read    []float64 // due -> response, reads
	visible []float64 // due -> the submit's apply seen on the trace stream
}

// admitAck is the daemon's 202 response to an admission.
type admitAck struct {
	Req      string `json:"req"`
	Workload string `json:"workload"`
}

// sent is the generator's record of one submit: when it was due and the
// request id the daemon acknowledged it with.
type sent struct {
	due time.Time
	req string
	id  string
}

// run drives the schedule. Every request is timed from its due time, so a
// stall is charged to every request it delays.
func (w *tcpWorld) run() (*unitResult, error) {
	rec := w.c.rec
	beBody, err := json.Marshal(bestEffortSubmit())
	if err != nil {
		return nil, err
	}
	res := &unitResult{opMS: make([]float64, 0, len(w.ops))}
	var submits []sent
	tg := &targets{mine: map[string]submitted{}}
	var tm tcpTimings
	var spun time.Duration
	bad := func(format string, args ...any) {
		res.failed++
		if len(res.problems) < 5 {
			res.problems = append(res.problems, fmt.Sprintf(format, args...))
		}
	}

	m := startMeter()
	start := time.Now()
	for _, op := range w.ops {
		due := start.Add(op.due)
		spun += pace(due)
		method, path, body, want := http.MethodGet, "/healthz", []byte(nil), http.StatusOK
		class := perfmodel.SingleNode
		tg.refresh(w.view)
		switch op.kind {
		case opSubmitBE:
			method, path, body, want = http.MethodPost, "/v1/submit", beBody, http.StatusAccepted
		case opSubmitTargeted:
			sr := targetedSubmit(op.n)
			if body, err = json.Marshal(sr); err != nil {
				return nil, err
			}
			method, path, want = http.MethodPost, "/v1/submit", http.StatusAccepted
			class = typeNamed[sr.Type].Class()
		case opEvict:
			// Only a workload whose apply was already seen on the stream is
			// evicted, each at most once: zero apply errors expected.
			if id, ok := tg.take(w.view, op.pick); ok {
				method, path, want = http.MethodPost, "/v1/evict/"+id, http.StatusAccepted
			}
		case opTarget:
			if id, ok := choose(tg.tunable, op.pick); ok {
				upd := serve.TargetUpdate{LatencyUS: 40000}
				if tg.mine[id].class == perfmodel.Analytics {
					upd = serve.TargetUpdate{CompletionSecs: 3600 + 600*op.pick}
				}
				if body, err = json.Marshal(upd); err != nil {
					return nil, err
				}
				method, path, want = http.MethodPost, "/v1/target/"+id, http.StatusAccepted
			}
		case opGetWorkload:
			if id, ok := choose(tg.known, op.pick); ok {
				path = "/v1/workloads/" + id
			}
		case opListWorkloads:
			path = "/v1/workloads?limit=20"
		case opMetrics:
			path = "/metrics"
		}
		sentAt := time.Now()
		code, data, err := w.do(method, path, body)
		done := time.Now()
		if rec != nil {
			// One op: due time to response, split into how late the
			// generator sent it and the round trip.
			end := rec.now()
			sent := end - done.Sub(sentAt).Nanoseconds()
			dueNS := sent - sentAt.Sub(due).Nanoseconds()
			rec.nextOp()
			rec.beginAt("serve.op", dueNS)
			rec.add("serve.late", dueNS, sent)
			rec.add("serve.roundtrip", sent, end)
			rec.end()
		}
		res.attempted++
		res.opMS = append(res.opMS, float64(done.Sub(due).Nanoseconds())/1e6)
		tm.late = append(tm.late, float64(sentAt.Sub(due).Nanoseconds())/1e6)
		if err != nil || code != want {
			bad("%s %s: status %d, %v", method, path, code, err)
			continue
		}
		switch {
		case path == "/v1/submit":
			var ack admitAck
			if err := json.Unmarshal(data, &ack); err != nil || ack.Workload == "" {
				bad("submit ack %q: %v", data, err)
				continue
			}
			tg.mine[ack.Workload] = submitted{bestEffort: op.kind == opSubmitBE, class: class}
			submits = append(submits, sent{due: due, req: ack.Req, id: ack.Workload})
			tm.submit = append(tm.submit, float64(done.Sub(due).Nanoseconds())/1e6)
		case method == http.MethodGet:
			tm.read = append(tm.read, float64(done.Sub(due).Nanoseconds())/1e6)
		}
	}
	// The run ends when the last submit is visible to a reader of the
	// trace stream: a growing apply backlog shows up here.
	lastSeen := w.awaitVisible(submits)
	res.wallS, res.cpuMS, res.allocKB = m.stop()
	res.cpuMS -= float64(spun.Microseconds()) / 1e3
	if !lastSeen.IsZero() {
		res.wallS = lastSeen.Sub(start).Seconds()
	}
	res.heapEndMB = heapEndMB()
	runtime.KeepAlive(w.srv)

	tm.visible = w.checkVisible(res, submits, bad)
	metrics := w.checkDaemon(res, submits, bad)

	var layers map[string]float64
	if rec != nil {
		layers = w.layers(res, metrics, tm, beBody)
	}
	finalize, err := w.stop()
	if err != nil {
		return nil, fmt.Errorf("daemon: %w", err)
	}
	if layers != nil {
		layers["serve.finalize_s"] = finalize.Seconds()
		if err := probeJournal(layers, w.journal, w.cfg); err != nil {
			return nil, err
		}
		ref, err := referenceWorld(w.cfg)
		if err != nil {
			return nil, err
		}
		probeWorld(layers, ref)
		res.layers = layers
	}
	if err := w.checkReplay(res); err != nil {
		return nil, err
	}
	return res, nil
}

// awaitVisible waits until the last acknowledged submit's apply was seen on
// the stream and returns when that happened (zero on timeout).
func (w *tcpWorld) awaitVisible(submits []sent) time.Time {
	if len(submits) == 0 {
		return time.Time{}
	}
	last := submits[len(submits)-1].req
	deadline := time.Now().Add(visibleTimeout)
	for time.Now().Before(deadline) {
		w.view.mu.Lock()
		at, ok := w.view.seenAt[last]
		w.view.mu.Unlock()
		if ok {
			return at
		}
		time.Sleep(2 * time.Millisecond)
	}
	return time.Time{}
}

// checkVisible returns every submit's due-to-visible latency; a submit that
// never reached the stream is a failed op.
func (w *tcpWorld) checkVisible(res *unitResult, submits []sent, bad func(string, ...any)) []float64 {
	w.view.mu.Lock()
	defer w.view.mu.Unlock()
	var ms []float64
	for _, s := range submits {
		at, ok := w.view.seenAt[s.req]
		if !ok {
			bad("submit %s (%s) never visible on the trace stream", s.req, s.id)
			continue
		}
		ms = append(ms, float64(at.Sub(s.due).Nanoseconds())/1e6)
	}
	if w.view.err != nil {
		res.problems = append(res.problems, w.view.err.Error())
	}
	if w.view.applyErrs > 0 {
		res.failed += w.view.applyErrs
		res.problems = append(res.problems, fmt.Sprintf("%d serve.apply-error events, first: %s", w.view.applyErrs, w.view.firstErr))
	}
	if w.view.dropped > 0 {
		res.problems = append(res.problems, fmt.Sprintf("trace stream dropped %d events", w.view.dropped))
	}
	res.qosMet = w.view.qos.share(w.view.lastT)
	return ms
}

// checkDaemon scrapes the daemon's own surfaces while it is still up: every
// acknowledged submit's promised id must be listed, the stream must have
// dropped nothing, and /metrics yields the simulated utilisation.
func (w *tcpWorld) checkDaemon(res *unitResult, submits []sent, bad func(string, ...any)) []byte {
	code, data, err := w.do(http.MethodGet, "/v1/workloads?limit=0", nil)
	var list struct {
		Tasks []struct {
			ID string `json:"id"`
		} `json:"tasks"`
	}
	if err != nil || code != http.StatusOK || json.Unmarshal(data, &list) != nil {
		res.problems = append(res.problems, fmt.Sprintf("listing workloads: status %d, %v", code, err))
		return nil
	}
	listed := make(map[string]bool, len(list.Tasks))
	for _, t := range list.Tasks {
		listed[t.ID] = true
	}
	for _, s := range submits {
		if !listed[s.id] {
			bad("acked workload %s is not listed by GET /v1/workloads", s.id)
		}
	}
	code, metrics, err := w.do(http.MethodGet, "/metrics", nil)
	if err != nil || code != http.StatusOK {
		res.problems = append(res.problems, fmt.Sprintf("scraping /metrics: status %d, %v", code, err))
		return nil
	}
	if d := promValue(metrics, "serve_trace_sub_dropped_total"); d > 0 {
		res.problems = append(res.problems, fmt.Sprintf("daemon reports %g dropped stream events", d))
	}
	res.cpuUtil = promValue(metrics, "cluster_used_cores_frac_mean")
	if res.cpuUtil <= 0 || res.qosMet <= 0 {
		res.problems = append(res.problems, "no utilisation or no target ever met")
	}
	return metrics
}

// checkReplay replays the journal the daemon produced: it must re-create
// the daemon's trace file byte for byte. Untimed.
func (w *tcpWorld) checkReplay(res *unitResult) error {
	path := filepath.Join(w.c.dir, "replayed.jsonl")
	sink, err := obs.NewStreamSink(path)
	if err != nil {
		return err
	}
	if _, err := serve.Replay(w.journal, serve.ReplayOptions{Sinks: []obs.Sink{sink}}); err != nil {
		sink.Discard()
		res.problems = append(res.problems, "replaying the produced journal: "+err.Error())
		return nil
	}
	live, err := os.ReadFile(w.trace)
	if err != nil {
		return err
	}
	replayed, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if !bytes.Equal(live, replayed) {
		res.problems = append(res.problems, fmt.Sprintf("replayed trace (%d bytes) differs from the live trace (%d bytes)", len(replayed), len(live)))
	}
	return nil
}

// requestSpan is the part of a /debug/requests span the ledger reads.
type requestSpan struct {
	DecodeUS   float64 `json:"decode_us"`
	LockWaitUS float64 `json:"lock_wait_us"`
	SealWaitUS float64 `json:"seal_wait_us"`
	ApplyUS    float64 `json:"apply_us"`
	Outcome    string  `json:"outcome"`
}

// layers assembles the per-layer metrics of a traced unit from the
// generator's own timings, the daemon's /metrics and /debug/requests, and a
// short closed-loop burst that measures the daemon's capacity.
func (w *tcpWorld) layers(res *unitResult, metrics []byte, tm tcpTimings, beBody []byte) map[string]float64 {
	p := func(xs []float64, q float64) float64 {
		v, _ := percentile(sortedCopy(xs), q)
		return v
	}
	hist := func(name, labels, q string) float64 {
		sep := ""
		if labels != "" {
			sep = ","
		}
		return promValue(metrics, fmt.Sprintf("%s{%s%squantile=\"%s\"}", name, labels, sep, q))
	}
	l := map[string]float64{
		"trace.run_wall_s":           res.wallS,
		"serve.sent":                 float64(res.attempted),
		"serve.ok":                   float64(res.attempted - res.failed),
		"serve.failed":               float64(res.failed),
		"serve.late_ms_mean":         mean(tm.late),
		"serve.ack_ms_p99":           p(res.opMS, 99),
		"serve.submit_ms_p50":        p(tm.submit, 50),
		"serve.read_ms_p50":          p(tm.read, 50),
		"serve.visible_ms_p50":       p(tm.visible, 50),
		"serve.visible_ms_p95":       p(tm.visible, 95),
		"serve.http_submit_us_p50":   hist("serve_http_request_us", `endpoint="submit"`, "0.50"),
		"serve.http_submit_us_p99":   hist("serve_http_request_us", `endpoint="submit"`, "0.99"),
		"serve.journal_flush_us_p99": hist("serve_journal_flush_us", "", "0.99"),
		"serve.epoch_batch_mean":     promValue(metrics, "applied_seq") / promValue(metrics, "serve_epoch_batch_size_count"),
		"serve.pacer_lag_us_p99":     hist("serve_pacer_lag_us", "", "0.99"),
		"serve.journal_bytes":        promValue(metrics, "journal_bytes"),
		"serve.stream_dropped":       promValue(metrics, "serve_trace_sub_dropped_total"),
		"sched.decisions":            promValue(metrics, "sched_decisions_total"),
		"sched.decisions_failed":     promValue(metrics, "sched_rejections_total"),
		"classify.reclassify_calls":  promValue(metrics, "phase_changes_total"),
		"obs.events":                 promValue(metrics, "obs_events_total"),
		"sim.events":                 promValue(metrics, "sim_events_fired"),
		"core.queue_len_peak":        promValue(metrics, "quasar_queue_len"),
		"slo.alerts":                 promValue(metrics, "slo_pages_fired_total") + promValue(metrics, "slo_tickets_fired_total"),
	}
	if code, data, err := w.do(http.MethodGet, "/debug/requests?limit=1024", nil); err == nil && code == http.StatusOK {
		var got struct {
			Requests []requestSpan `json:"requests"`
		}
		if json.Unmarshal(data, &got) == nil {
			var decode, lock, seal, apply []float64
			for _, sp := range got.Requests {
				if sp.Outcome == "" {
					continue
				}
				decode = append(decode, sp.DecodeUS)
				lock = append(lock, sp.LockWaitUS)
				seal = append(seal, sp.SealWaitUS/1e3)
				apply = append(apply, sp.ApplyUS)
			}
			l["serve.span_decode_us_p50"] = median(decode)
			l["serve.span_lock_wait_us_p50"] = median(lock)
			l["serve.span_seal_wait_ms_p50"] = median(seal)
			l["serve.span_apply_us_p50"] = median(apply)
		}
	}
	// Closed-loop burst: how many requests per second the same connection
	// completes back to back. rate / closed_loop_rps is the load factor the
	// open-loop schedule ran at.
	n, t0 := 0, time.Now()
	for time.Since(t0) < 3*time.Second {
		if code, _, err := w.do(http.MethodPost, "/v1/submit", beBody); err != nil || code != http.StatusAccepted {
			break
		}
		n++
	}
	if rps := float64(n) / time.Since(t0).Seconds(); rps > 0 {
		l["serve.closed_loop_rps"] = rps
		l["serve.load_factor"] = tcpRate / rps
	}
	return l
}
