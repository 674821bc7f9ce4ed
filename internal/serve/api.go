package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"time"

	"quasar/internal/classify"
	"quasar/internal/core"
	"quasar/internal/obs"
)

// promContentType is the Prometheus text exposition content type; version
// 0.0.4 is the text-format version scrapers negotiate on.
const promContentType = "text/plain; version=0.0.4"

// ndjsonContentType marks the newline-delimited JSON endpoints (the flight
// recorder dump and the live trace stream): one complete JSON value per line.
const ndjsonContentType = "application/x-ndjson"

// route is one endpoint of the daemon's API: its method and path (Go 1.22
// mux syntax; a trailing {id} wildcard matches one more path segment), the
// endpoint label of its RED metrics, and its handler.
type route struct {
	method, path, label string
	handle              func(*Server, http.ResponseWriter, *http.Request)
}

// apiRoutes declares every endpoint once. Admission endpoints only touch the
// journal; query endpoints only take the engine lock — see the Server
// lock-order comment. The order is the order /metrics prints each label's
// series in, so a new route goes where its label should print.
var apiRoutes = []route{
	{"POST", "/v1/submit", "submit", (*Server).handleSubmit},
	{"POST", "/v1/target/{id}", "target", (*Server).handleTarget},
	{"POST", "/v1/evict/{id}", "evict", (*Server).handleEvict},
	{"POST", "/v1/shutdown", "shutdown", (*Server).handleShutdown},
	{"GET", "/v1/workloads", "workloads", (*Server).handleWorkloads},
	{"GET", "/v1/workloads/{id}", "workload", (*Server).handleWorkload},
	{"GET", "/healthz", "healthz", (*Server).handleHealthz},
	{"GET", "/metrics", "metrics", (*Server).handleMetrics},
	{"GET", "/debug/flightrecorder", "flightrecorder", (*Server).handleFlight},
	{"GET", "/statusz", "statusz", (*Server).handleStatusz},
	{"GET", "/debug/requests", "requests", (*Server).handleRequests},
	{"GET", "/debug/requests/{id}", "requests", (*Server).handleRequest},
	{"GET", "/v1/trace/stream", "trace-stream", (*Server).handleTraceStream},
}

// otherEndpoint labels every path no route serves, rather than minting
// unbounded label values.
const otherEndpoint = "other"

// routes builds the mux from apiRoutes, wrapped in the RED-metrics
// middleware.
func (s *Server) routes() http.Handler {
	mux := http.NewServeMux()
	for _, rt := range apiRoutes {
		mux.HandleFunc(rt.method+" "+rt.path, func(w http.ResponseWriter, r *http.Request) { rt.handle(s, w, r) })
	}
	return s.redMiddleware(mux)
}

// endpointLabels is the RED label vocabulary, registered up front so
// /metrics sample groups are stable: each route's label once, in apiRoutes
// order, then otherEndpoint.
func endpointLabels() []string {
	var labels []string
	for _, rt := range apiRoutes {
		if !slices.Contains(labels, rt.label) {
			labels = append(labels, rt.label)
		}
	}
	return append(labels, otherEndpoint)
}

// endpointOf returns the label of the route serving path. Go 1.22's
// http.Request carries no matched-pattern field, so the match is by hand:
// a path equal to a route's, or under a wildcard route's prefix.
func endpointOf(path string) string {
	for i := range apiRoutes {
		rt := &apiRoutes[i]
		if prefix, wild := strings.CutSuffix(rt.path, "{id}"); path == rt.path || (wild && strings.HasPrefix(path, prefix)) {
			return rt.label
		}
	}
	return otherEndpoint
}

// statusRecorder captures the response status for the RED metrics. It
// forwards Flush so the trace-stream handler keeps its http.Flusher.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (sr *statusRecorder) WriteHeader(code int) {
	sr.status = code
	sr.ResponseWriter.WriteHeader(code)
}

func (sr *statusRecorder) Flush() {
	if f, ok := sr.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// redMiddleware records per-endpoint request counts, error counts, and
// wall-clock handler latency for every response.
func (s *Server) redMiddleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sr := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(sr, r)
		s.tel.httpDone(endpointOf(r.URL.Path), sr.status, time.Since(start))
	})
}

// apiError is the JSON error envelope.
type apiError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v) // the client went away; nothing sensible to do
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, apiError{Error: fmt.Sprintf(format, args...)})
}

// admitResponse acknowledges a journaled admission: the request ID, the
// sequence number, the epoch boundary it will apply at, and — for submits —
// the promised workload ID.
type admitResponse struct {
	Req      string  `json:"req"`
	Workload string  `json:"workload,omitempty"`
	Seq      int     `json:"seq"`
	ApplyAt  float64 `json:"apply_at"`
}

// admit journals the entry and writes the acknowledgement. 202: the request
// is durable and scheduled, not yet applied. t0 is the handler's telemetry
// clock at entry — the span's decode/handler phases are measured from it.
func (s *Server) admit(w http.ResponseWriter, t0 int64, e Entry) {
	ent, err := s.j.Admit(e)
	if err != nil {
		httpError(w, http.StatusServiceUnavailable, "admission failed: %v", err)
		return
	}
	writeJSON(w, http.StatusAccepted, admitResponse{Req: ent.Req, Workload: ent.Workload, Seq: ent.Seq, ApplyAt: ent.At})
	s.tel.received(ent.Seq, t0, telNow())
}

// decodeOne decodes the one JSON value an admission body holds. Anything but
// whitespace after it is an error: a second, concatenated request would
// otherwise be dropped without a word while the first was admitted.
func decodeOne(dec *json.Decoder, v any) error {
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("unexpected data after the JSON value")
	}
	return nil
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	t0 := telNow()
	req, err := decodeSubmit(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.admit(w, t0, Entry{Kind: KindSubmit, Submit: req})
}

// decodeSubmit reads and validates a submit body: exactly one JSON request
// with known fields only, describing a workload the engine can build.
func decodeSubmit(body io.Reader) (*SubmitRequest, error) {
	var req SubmitRequest
	if err := decodeOne(json.NewDecoder(body), &req); err != nil {
		return nil, fmt.Errorf("bad submit body: %w", err)
	}
	if err := req.validate(); err != nil {
		return nil, err
	}
	return &req, nil
}

func (s *Server) handleTarget(w http.ResponseWriter, r *http.Request) {
	t0 := telNow()
	id := r.PathValue("id")
	var req TargetUpdate
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := decodeOne(dec, &req); err != nil {
		httpError(w, http.StatusBadRequest, "bad target body: %v", err)
		return
	}
	if err := req.validate(); err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.admit(w, t0, Entry{Kind: KindTarget, Workload: id, Target: &req})
}

func (s *Server) handleEvict(w http.ResponseWriter, r *http.Request) {
	s.admit(w, telNow(), Entry{Kind: KindEvict, Workload: r.PathValue("id")})
}

func (s *Server) handleShutdown(w http.ResponseWriter, _ *http.Request) {
	s.Shutdown()
	writeJSON(w, http.StatusAccepted, map[string]bool{"shutting_down": true})
}

// workloadInfo is one row of the workload listing.
type workloadInfo struct {
	ID         string  `json:"id"`
	Type       string  `json:"type"`
	Status     string  `json:"status"`
	BestEffort bool    `json:"best_effort,omitempty"`
	Nodes      int     `json:"nodes"`
	SubmitAt   float64 `json:"submit_at"`
}

// infoOf renders a workload's listing row from its record and, while it is
// live, its task; the caller holds the engine lock.
func infoOf(rec core.Record, t *core.Task) workloadInfo {
	nodes := 0
	if t != nil {
		nodes = t.NumNodes()
	}
	return workloadInfo{
		ID: rec.ID, Type: rec.Type.String(), Status: rec.Status.String(),
		BestEffort: rec.BestEffort, Nodes: nodes, SubmitAt: rec.SubmitAt,
	}
}

type workloadList struct {
	Total int            `json:"total"`
	Tasks []workloadInfo `json:"tasks"`
}

// listWorkloads snapshots the first limit workloads in submission order
// (all of them when limit is 0), live and completed alike, under the engine
// lock.
func (s *Server) listWorkloads(limit int) workloadList {
	s.engineMu.Lock()
	defer s.engineMu.Unlock()
	total := s.w.RT.Submitted()
	out := workloadList{Total: total}
	n := total
	if limit > 0 && limit < n {
		n = limit
	}
	out.Tasks = make([]workloadInfo, 0, n)
	for pos := 0; pos < n; pos++ {
		out.Tasks = append(out.Tasks, infoOf(s.w.RT.RecordAt(pos)))
	}
	return out
}

// queryCount reads the count parameter key (def when absent, 0 meaning
// "all"). A malformed or negative value answers 400 and returns false.
func queryCount(w http.ResponseWriter, r *http.Request, key string, def int) (int, bool) {
	q := r.URL.Query().Get(key)
	if q == "" {
		return def, true
	}
	v, err := strconv.Atoi(q)
	if err != nil || v < 0 {
		httpError(w, http.StatusBadRequest, "bad %s %q", key, q)
		return 0, false
	}
	return v, true
}

func (s *Server) handleWorkloads(w http.ResponseWriter, r *http.Request) {
	limit, ok := queryCount(w, r, "limit", 100)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, s.listWorkloads(limit))
}

// workloadDetail adds the target to the listing row.
type workloadDetail struct {
	workloadInfo
	Class          string  `json:"class"`
	CompletionSecs float64 `json:"completion_secs,omitempty"`
	QPS            float64 `json:"qps,omitempty"`
	LatencyUS      float64 `json:"latency_us,omitempty"`
	IPS            float64 `json:"ips,omitempty"`
}

// getWorkload snapshots one workload, live or completed, under the engine
// lock.
func (s *Server) getWorkload(id string) (workloadDetail, bool) {
	s.engineMu.Lock()
	defer s.engineMu.Unlock()
	rec, t, ok := s.w.RT.Lookup(id)
	if !ok {
		return workloadDetail{}, false
	}
	d := workloadDetail{workloadInfo: infoOf(rec, t), Class: rec.Type.Class().String()}
	if rec.Tier().Targeted() {
		d.CompletionSecs = rec.Target.CompletionSecs
		d.QPS = rec.Target.QPS
		d.LatencyUS = rec.Target.LatencyUS
		d.IPS = rec.Target.IPS
	}
	return d, true
}

func (s *Server) handleWorkload(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	d, ok := s.getWorkload(id)
	if !ok {
		httpError(w, http.StatusNotFound, "unknown workload %s", id)
		return
	}
	writeJSON(w, http.StatusOK, d)
}

// healthState reads the SLO engine's latest cluster health sweep under the
// engine lock.
func (s *Server) healthState() (score float64, swept, enabled bool) {
	s.engineMu.Lock()
	defer s.engineMu.Unlock()
	if s.w.SLO == nil {
		return 0, false, false
	}
	score, swept = s.w.SLO.Health()
	return score, swept, true
}

type healthResponse struct {
	Status string  `json:"status"`
	Health float64 `json:"health"`
	SLO    bool    `json:"slo"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	score, swept, enabled := s.healthState()
	resp := healthResponse{Status: "ok", Health: 1, SLO: enabled}
	code := http.StatusOK
	switch {
	case !enabled:
		resp.Status = "ok (slo monitoring disabled)"
	case !swept:
		resp.Status = "ok (no health sweep yet)"
	case score < 0.5:
		resp.Status = "degraded"
		resp.Health = score
		code = http.StatusServiceUnavailable
	default:
		resp.Health = score
	}
	writeJSON(w, code, resp)
}

// promSnapshot renders the Prometheus text snapshot and the classifier's
// retraining counters under the engine lock, into a buffer so the (unlocked)
// response write never blocks the pacer on a slow scraper.
func (s *Server) promSnapshot() ([]byte, error) {
	s.engineMu.Lock()
	defer s.engineMu.Unlock()
	var buf bytes.Buffer
	if err := obs.WritePromSnapshot(&buf, s.w.Tracer); err != nil {
		return nil, err
	}
	if err := writeTrainStats(&buf, s.w.Q.Engine().TrainStats()); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// writeTrainStats renders Engine.TrainStats as per-axis counters. Fit seconds
// are wall time, so the counters are rendered from a registry built per
// scrape, never registered on the tracer's deterministic one.
func writeTrainStats(w io.Writer, stats []classify.AxisTrainStats) error {
	reg := obs.NewRegistry()
	for _, m := range []struct {
		name, help string
		value      func(classify.AxisTrainStats) float64
	}{
		{"classify_fits_total", "models fitted", func(st classify.AxisTrainStats) float64 { return float64(st.Fits) }},
		{"classify_fit_seconds_total", "wall time spent fitting", func(st classify.AxisTrainStats) float64 { return st.FitSeconds }},
		{"classify_fit_epochs_total", "SGD epochs run over all fits", func(st classify.AxisTrainStats) float64 { return float64(st.Epochs) }},
		{"classify_warm_fits_total", "fits seeded from the previous model", func(st classify.AxisTrainStats) float64 { return float64(st.WarmFits) }},
		{"classify_warm_fit_epochs_total", "SGD epochs run over the warm fits", func(st classify.AxisTrainStats) float64 { return float64(st.WarmEpochs) }},
	} {
		for axis, st := range stats {
			reg.LabeledCounter(m.name, "axis", classify.Axis(axis).String(), m.help).Add(m.value(st))
		}
	}
	return obs.WritePromRegistry(w, reg)
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	data, err := s.promSnapshot()
	if err != nil {
		httpError(w, http.StatusInternalServerError, "rendering metrics: %v", err)
		return
	}
	// The telemetry plane renders after the sim-plane snapshot, also into the
	// buffer: Telemetry.mu must never be held across a slow client write.
	buf := bytes.NewBuffer(data)
	if err := s.tel.WriteProm(buf); err != nil {
		httpError(w, http.StatusInternalServerError, "rendering telemetry metrics: %v", err)
		return
	}
	w.Header().Set("Content-Type", promContentType)
	_, _ = w.Write(buf.Bytes())
}

// flightWindow copies the flight recorder's retained event window under the
// engine lock.
func (s *Server) flightWindow() (obs.Header, []obs.Event) {
	s.engineMu.Lock()
	defer s.engineMu.Unlock()
	return s.w.Tracer.Header(), s.ring.Events()
}

func (s *Server) handleFlight(w http.ResponseWriter, _ *http.Request) {
	h, events := s.flightWindow()
	w.Header().Set("Content-Type", ndjsonContentType)
	_ = obs.WriteEventsJSONL(w, &h, events) // best effort: client may disconnect mid-dump
}

// requestsResponse is the GET /debug/requests envelope.
type requestsResponse struct {
	Requests []RequestSpan `json:"requests"`
}

func (s *Server) handleRequests(w http.ResponseWriter, r *http.Request) {
	limit, ok := queryCount(w, r, "limit", 100)
	if !ok {
		return
	}
	spans := s.tel.Recent(limit)
	if spans == nil {
		spans = []RequestSpan{}
	}
	writeJSON(w, http.StatusOK, requestsResponse{Requests: spans})
}

func (s *Server) handleRequest(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	sp, ok := s.tel.Span(id)
	if !ok {
		httpError(w, http.StatusNotFound, "unknown or evicted request %s (ring holds the most recent %d)", id, len(s.tel.spans))
		return
	}
	writeJSON(w, http.StatusOK, sp)
}

// handleTraceStream serves the live deterministic trace as NDJSON: the trace
// header line, then every event as its epoch seals. The subscription buffer
// is bounded; when this client falls behind, whole epochs are dropped and a
// {"stream_dropped":N} control line (cumulative count, seq 0 so it can never
// be mistaken for an event) precedes the next delivered batch. ?n= stops
// after exactly that many events, cutting the last batch after its line —
// handy for smoke tests. On shutdown the stream
// ends at the stop signal, before finalize's last epoch: the HTTP drain must
// complete before that epoch runs (raced admissions), so the final events
// and the registry metric tail are the trace file's, not the live stream's.
func (s *Server) handleTraceStream(w http.ResponseWriter, r *http.Request) {
	limit, ok := queryCount(w, r, "n", 0)
	if !ok {
		return
	}
	id, header, ch := s.traceSink.Subscribe(16)
	defer s.traceSink.Unsubscribe(id)
	w.Header().Set("Content-Type", ndjsonContentType)
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	if len(header) > 0 {
		_, _ = w.Write(header)
		if flusher != nil {
			flusher.Flush()
		}
	}
	sent := 0
	var lastDropped int64
	deliver := func(batch obs.Batch) bool {
		if batch.Dropped > lastDropped {
			lastDropped = batch.Dropped
			_, _ = fmt.Fprintf(w, "{\"seq\":0,\"stream_dropped\":%d}\n", batch.Dropped)
		}
		data, events := batch.Data, batch.Events
		if limit > 0 && sent+events > limit {
			events = limit - sent
			data = data[:lineEnd(data, events)]
		}
		if _, err := w.Write(data); err != nil {
			return false
		}
		if flusher != nil {
			flusher.Flush()
		}
		sent += events
		return limit == 0 || sent < limit
	}
	for {
		select {
		case batch, ok := <-ch:
			if !ok || !deliver(batch) {
				return
			}
		case <-r.Context().Done():
			return
		case <-s.stop:
			// The daemon is shutting down and finalize is waiting for this
			// handler to drain; deliver what is already queued and exit.
			for {
				select {
				case batch, ok := <-ch:
					if !ok || !deliver(batch) {
						return
					}
				default:
					return
				}
			}
		}
	}
}

// lineEnd returns the offset just past the n-th newline of data (len(data)
// if it holds fewer lines). A batch's event lines come first, one per line.
func lineEnd(data []byte, n int) int {
	end := 0
	for ; n > 0; n-- {
		i := bytes.IndexByte(data[end:], '\n')
		if i < 0 {
			return len(data)
		}
		end += i + 1
	}
	return end
}

// statusz is the daemon's introspection snapshot.
type statusz struct {
	SimTime      float64 `json:"sim_time"`
	NextBoundary float64 `json:"next_boundary"`
	EpochSecs    float64 `json:"epoch_secs"`
	Applied      int     `json:"applied"`
	AppliedSeq   int     `json:"applied_seq"`
	JournalSeq   int     `json:"journal_seq"`
	OpenBoundary float64 `json:"open_boundary"`
	Pending      int     `json:"pending_events"`
	NextEventAt  float64 `json:"next_event_at"`
	Fired        uint64  `json:"fired_events"`
	Tasks        int     `json:"tasks"`
	QueueLen     int     `json:"queue_len"`
	TraceEvents  int     `json:"trace_events"`
}

// status assembles statusz under the engine lock (journal state nested in
// the established engineMu → Journal.mu order).
func (s *Server) status() statusz {
	s.engineMu.Lock()
	defer s.engineMu.Unlock()
	st := statusz{
		SimTime:      s.w.RT.Eng.Now(),
		NextBoundary: s.nextB,
		EpochSecs:    s.w.cfg.EpochSecs,
		Applied:      s.w.appliedN,
		AppliedSeq:   s.w.appliedSeq,
		Pending:      s.w.RT.Eng.Pending(),
		Fired:        s.w.RT.Eng.Fired(),
		Tasks:        s.w.RT.Submitted(),
		QueueLen:     s.w.Q.QueueLen(),
		TraceEvents:  s.w.Tracer.Len(),
	}
	if at, ok := s.w.RT.Eng.NextAt(); ok {
		st.NextEventAt = at
	}
	st.JournalSeq, st.OpenBoundary = s.j.State()
	return st
}

func (s *Server) handleStatusz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.status())
}
