package serve

import (
	"io"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"quasar/internal/metrics"
	"quasar/internal/obs"
)

// The telemetry plane is serve mode's wall-clock observability: request
// spans, RED metrics, and operational gauges. It lives strictly outside the
// determinism boundary — nothing here is ever registered on the tracer's
// registry (whose metric lines trail the deterministic JSONL stream), and
// nothing here feeds back into admission stamping or engine scheduling. The
// same discipline as internal/obs/prof: wall-clock readings are monotonic
// nanoseconds since process start, through the single telNow read point.
//
// Lock order: Telemetry.mu is a strict leaf. It is taken after engineMu
// (pacer-side recording) or after Journal.mu is RELEASED (admission-side
// recording) — never while waiting on either, and nothing under it acquires
// another lock. Gauges that read state owned by other lock domains (journal
// bytes, applied sequence, snapshot age) go through atomics instead of locks
// so a /metrics render can never deadlock against the pacer.

// telBase anchors the telemetry clock at process start.
var telBase = time.Now()

// telNow reads the telemetry clock: monotonic nanoseconds since telBase.
func telNow() int64 { return time.Since(telBase).Nanoseconds() }

// requestID mints the wall-plane request ID for journal sequence seq. It is
// deterministic (a pure function of the sequence number) so replaying the
// journal reproduces the request-ID ↔ decision linkage exactly.
func requestID(seq int) string {
	var b [20]byte
	bs := append(b[:0], 'r', '-')
	bs = strconv.AppendInt(bs, int64(seq), 10)
	return string(bs)
}

// RequestSpan is the wall-clock phase breakdown of one admitted request,
// queryable via GET /debug/requests[/{id}]. All durations are microseconds;
// ReceivedMS is wall milliseconds since the daemon process started.
type RequestSpan struct {
	Req      string  `json:"req"`
	Seq      int     `json:"seq"`
	Kind     string  `json:"kind"`
	Workload string  `json:"workload,omitempty"`
	ApplyAt  float64 `json:"apply_at"`
	// Phase timings, in request order: handler receive → decode/validate →
	// journal lock wait → lock hold (stamp + encode) → epoch seal (group
	// commit flush) → engine apply.
	ReceivedMS float64 `json:"received_ms"`
	DecodeUS   float64 `json:"decode_us"`
	LockWaitUS float64 `json:"lock_wait_us"`
	LockHoldUS float64 `json:"lock_hold_us"`
	HandlerUS  float64 `json:"handler_us"`
	SealWaitUS float64 `json:"seal_wait_us"`
	FlushUS    float64 `json:"flush_us"`
	ApplyUS    float64 `json:"apply_us"`
	// AdmitToDecisionUS is the wall time from handler receive to the engine
	// applying the entry at its epoch boundary.
	AdmitToDecisionUS float64 `json:"admit_to_decision_us"`
	// Outcome is "" until the entry applies, then "applied" or "apply-error".
	Outcome string `json:"outcome,omitempty"`
	Error   string `json:"error,omitempty"`

	receivedNS int64 // handler-entry telemetry clock reading
}

// telemetryEndpoints is the fixed endpoint label vocabulary of the RED
// metrics, registered up front so /metrics sample groups are stable.
var telemetryEndpoints = []string{
	"submit", "target", "evict", "shutdown", "workloads", "workload",
	"healthz", "metrics", "flightrecorder", "statusz", "requests",
	"trace-stream", "other",
}

// Telemetry is the serve daemon's wall-clock telemetry state: the bounded
// request-span ring, the RED counters/histograms, and the atomics backing the
// operational gauges.
type Telemetry struct {
	// Cross-lock-domain gauge state (atomics; see the lock-order comment).
	journalBytes   *atomic.Int64
	appliedSeq     atomic.Int64
	lastSnapshotNS atomic.Int64 // -1 until the first snapshot lands

	mu     sync.Mutex
	reg    *obs.Registry
	spans  []RequestSpan // ring keyed by Seq % len
	maxSeq int           // highest admitted sequence recorded

	httpReqs map[string]*obs.Counter
	httpErrs map[string]*obs.Counter
	httpLat  map[string]*metrics.Histogram

	flushUS    *metrics.Histogram
	batchSize  *metrics.Histogram
	pacerLagUS *metrics.Histogram
}

// newTelemetry builds the telemetry plane with a request ring of the given
// capacity. journalBytes is the journal's output-byte counter; subscribers
// and subDropped read the tee sink's subscription state.
func newTelemetry(ringCap int, journalBytes *atomic.Int64, subscribers, subDropped func() int64) *Telemetry {
	if ringCap < 16 {
		ringCap = 16
	}
	t := &Telemetry{
		reg:          obs.NewRegistry(),
		spans:        make([]RequestSpan, ringCap),
		journalBytes: journalBytes,
		httpReqs:     make(map[string]*obs.Counter, len(telemetryEndpoints)),
		httpErrs:     make(map[string]*obs.Counter, len(telemetryEndpoints)),
		httpLat:      make(map[string]*metrics.Histogram, len(telemetryEndpoints)),
		flushUS:      metrics.NewHistogram(0.01),
		batchSize:    metrics.NewHistogram(0.01),
		pacerLagUS:   metrics.NewHistogram(0.01),
	}
	t.lastSnapshotNS.Store(-1)
	for _, ep := range telemetryEndpoints {
		label := `endpoint="` + ep + `"`
		t.httpReqs[ep] = t.reg.LabeledCounter("serve_http_requests_total",
			label, "HTTP requests handled, by endpoint.")
	}
	for _, ep := range telemetryEndpoints {
		label := `endpoint="` + ep + `"`
		t.httpErrs[ep] = t.reg.LabeledCounter("serve_http_errors_total",
			label, "HTTP responses with status >= 400, by endpoint.")
	}
	for _, ep := range telemetryEndpoints {
		label := `endpoint="` + ep + `"`
		h := metrics.NewHistogram(0.01)
		t.httpLat[ep] = h
		t.reg.LabeledHistogram("serve_http_request_us",
			label, "Wall-clock handler latency, microseconds, by endpoint.", h)
	}
	t.reg.Histogram("serve_journal_flush_us",
		"Journal group-commit flush latency per sealed epoch, microseconds.", t.flushUS)
	t.reg.Histogram("serve_epoch_batch_size",
		"Admissions sealed per epoch boundary.", t.batchSize)
	t.reg.Histogram("serve_pacer_lag_us",
		"How far the pacer ran behind its wall-clock warp target per epoch, microseconds.", t.pacerLagUS)
	t.reg.Gauge("journal_bytes",
		"Bytes written to the admission journal.", func() float64 {
			return float64(journalBytes.Load())
		})
	t.reg.Gauge("applied_seq",
		"Last journal sequence number applied by the engine.", func() float64 {
			return float64(t.appliedSeq.Load())
		})
	t.reg.Gauge("snapshot_age_seconds",
		"Wall seconds since the last warm-failover snapshot landed (-1 before the first).", func() float64 {
			last := t.lastSnapshotNS.Load()
			if last < 0 {
				return -1
			}
			return float64(telNow()-last) / 1e9
		})
	t.reg.Gauge("serve_trace_subscribers",
		"Live /v1/trace/stream subscribers.", func() float64 {
			return float64(subscribers())
		})
	t.reg.Gauge("serve_trace_sub_dropped_total",
		"Trace events dropped across all stream subscribers (bounded buffers).", func() float64 {
			return float64(subDropped())
		})
	return t
}

// spanFor returns the ring slot for seq if it still holds that sequence.
func (t *Telemetry) spanFor(seq int) *RequestSpan {
	sp := &t.spans[seq%len(t.spans)]
	if sp.Seq != seq {
		return nil
	}
	return sp
}

// admitted opens the span for a freshly journaled entry. Called by the
// journal AFTER releasing Journal.mu; arriveNS/lockedNS/releasedNS bracket
// the lock wait and hold.
func (t *Telemetry) admitted(ent *Entry, arriveNS, lockedNS, releasedNS int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	sp := &t.spans[ent.Seq%len(t.spans)]
	*sp = RequestSpan{
		Req: ent.Req, Seq: ent.Seq, Kind: ent.Kind, Workload: ent.Workload,
		ApplyAt:    ent.At,
		LockWaitUS: float64(lockedNS-arriveNS) / 1e3,
		LockHoldUS: float64(releasedNS-lockedNS) / 1e3,
		receivedNS: arriveNS,
	}
	if ent.Seq > t.maxSeq {
		t.maxSeq = ent.Seq
	}
}

// received back-fills the handler-side timings once the admission response is
// ready: t0 is handler entry (decode starts), doneNS the response write
// point.
func (t *Telemetry) received(seq int, t0, doneNS int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	sp := t.spanFor(seq)
	if sp == nil {
		return
	}
	sp.DecodeUS = float64(sp.receivedNS-t0) / 1e3
	sp.HandlerUS = float64(doneNS-t0) / 1e3
	sp.ReceivedMS = float64(t0) / 1e6
	sp.receivedNS = t0
}

// sealed stamps the group-commit point for every entry of a sealed batch:
// the epoch-seal wait (admission to seal) and the shared flush duration.
func (t *Telemetry) sealed(batch []Entry, sealNS int64, flushNS int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.flushUS.Add(float64(flushNS) / 1e3)
	t.batchSize.Add(float64(len(batch)))
	for i := range batch {
		sp := t.spanFor(batch[i].Seq)
		if sp == nil {
			continue
		}
		sp.SealWaitUS = float64(sealNS-sp.receivedNS) / 1e3
		sp.FlushUS = float64(flushNS) / 1e3
	}
}

// applied closes the span when the engine applies the entry at its boundary.
func (t *Telemetry) applied(e *Entry, applyNS int64, applyErr string) {
	t.appliedSeq.Store(int64(e.Seq))
	t.mu.Lock()
	defer t.mu.Unlock()
	sp := t.spanFor(e.Seq)
	if sp == nil {
		return
	}
	now := telNow()
	sp.ApplyUS = float64(applyNS) / 1e3
	sp.AdmitToDecisionUS = float64(now-sp.receivedNS) / 1e3
	if applyErr == "" {
		sp.Outcome = "applied"
	} else {
		sp.Outcome = "apply-error"
		sp.Error = applyErr
	}
}

// pacerLag records how far behind its warp target an epoch completed.
func (t *Telemetry) pacerLag(lag time.Duration) {
	if lag < 0 {
		lag = 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.pacerLagUS.Add(float64(lag.Nanoseconds()) / 1e3)
}

// snapshotLanded records a successful warm-failover snapshot write.
func (t *Telemetry) snapshotLanded() { t.lastSnapshotNS.Store(telNow()) }

// httpDone records one completed HTTP request for the RED metrics.
func (t *Telemetry) httpDone(endpoint string, status int, dur time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.httpReqs[endpoint].Inc()
	if status >= 400 {
		t.httpErrs[endpoint].Inc()
	}
	t.httpLat[endpoint].Add(float64(dur.Nanoseconds()) / 1e3)
}

// Recent returns up to limit request spans, most recent first.
func (t *Telemetry) Recent(limit int) []RequestSpan {
	if limit <= 0 || limit > len(t.spans) {
		limit = len(t.spans)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]RequestSpan, 0, limit)
	for seq := t.maxSeq; seq > 0 && len(out) < limit; seq-- {
		sp := t.spanFor(seq)
		if sp == nil {
			break // older than the ring window
		}
		out = append(out, *sp)
	}
	return out
}

// Span returns the span for a request ID ("r-<seq>"), if the ring still
// holds it.
func (t *Telemetry) Span(req string) (RequestSpan, bool) {
	if len(req) < 3 || req[0] != 'r' || req[1] != '-' {
		return RequestSpan{}, false
	}
	seq, err := strconv.Atoi(req[2:])
	if err != nil || seq <= 0 {
		return RequestSpan{}, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	sp := t.spanFor(seq)
	if sp == nil || sp.Req != req {
		return RequestSpan{}, false
	}
	return *sp, true
}

// WriteProm renders the telemetry registry in the Prometheus exposition
// format under the telemetry lock (the histograms mutate concurrently with
// scrapes; the gauges read atomics and take no lock).
func (t *Telemetry) WriteProm(w io.Writer) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return obs.WritePromRegistry(w, t.reg)
}
