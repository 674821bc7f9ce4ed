package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"quasar/internal/classify"
	"quasar/internal/obs"
)

// TestLiveTraceStreamMatchesFile is the live-streaming byte-identity
// contract: a subscriber attached before the daemon starts pacing (so the tee
// buffers the world-build prologue) receives, across header and batches, the
// exact bytes the StreamSink writes to the trace file — telemetry and live
// subscription never perturb the deterministic plane.
func TestLiveTraceStreamMatchesFile(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "live.jsonl")
	s, err := New(Options{
		Addr:        "127.0.0.1:0",
		Config:      Config{Servers: 20, Seed: 7},
		JournalPath: filepath.Join(dir, "run.journal"),
		TracePath:   tracePath,
		Warp:        400,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Subscribe before Serve: the tee buffers everything until the first
	// Publish, so this subscriber's stream starts at the very first event.
	_, header, ch := s.tee.Subscribe(4096)
	var streamed bytes.Buffer
	streamed.Write(header)
	collected := make(chan struct{})
	var dropped int64
	go func() {
		defer close(collected)
		for batch := range ch {
			streamed.Write(batch.Data)
			dropped = batch.Dropped
		}
	}()

	done := make(chan error, 1)
	go func() { done <- s.Serve() }()
	driveScriptedMix(t, "http://"+s.Addr())
	time.Sleep(60 * time.Millisecond)
	stopServer(t, s, done)
	<-collected

	if dropped != 0 {
		t.Fatalf("deep-buffered subscriber dropped %d events", dropped)
	}
	want, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, streamed.Bytes()) {
		t.Fatalf("streamed trace diverged from file (%d vs %d bytes)", len(streamed.Bytes()), len(want))
	}
	if !bytes.Contains(want, []byte(`"req":"r-`)) {
		t.Fatal("trace carries no request IDs on serve.apply events")
	}
}

// TestRequestSpansEndToEnd pins the request-span surface: the admission
// response's request ID resolves on /debug/requests/{id} with a closed span
// whose phase timings are populated, the ring listing covers the admissions,
// and an unknown ID is a 404.
func TestRequestSpansEndToEnd(t *testing.T) {
	dir := t.TempDir()
	s, done := startServer(t, Options{
		Config:       Config{Servers: 10, Seed: 3},
		JournalPath:  filepath.Join(dir, "run.journal"),
		SnapshotPath: filepath.Join(dir, "run.snapshot.json"), SnapshotEverySecs: 5,
		Warp: 400,
	})
	base := "http://" + s.Addr()

	var reqs []string
	for i := 0; i < 3; i++ {
		m := postJSON(t, base, "/v1/submit", SubmitRequest{Type: "single-node", Family: -1, BestEffort: true})
		req, _ := m["req"].(string)
		if req == "" {
			t.Fatalf("submit %d returned no request ID: %v", i, m)
		}
		reqs = append(reqs, req)
		time.Sleep(2 * time.Millisecond)
	}

	// Poll until the last span closes at its epoch boundary.
	var span RequestSpan
	last := reqs[len(reqs)-1]
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(base + "/debug/requests/" + last)
		if err != nil {
			t.Fatal(err)
		}
		code := resp.StatusCode
		err = json.NewDecoder(resp.Body).Decode(&span)
		_ = resp.Body.Close()
		if code == http.StatusOK && err == nil && span.Outcome == "applied" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("span %s never closed (status %d, outcome %q)", last, code, span.Outcome)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if span.Req != last || span.Kind != KindSubmit {
		t.Fatalf("span identity wrong: %+v", span)
	}
	if span.HandlerUS <= 0 || span.AdmitToDecisionUS <= 0 || span.ApplyAt <= 0 {
		t.Fatalf("span timings missing: %+v", span)
	}
	if span.LockWaitUS < 0 || span.LockHoldUS < 0 || span.SealWaitUS < 0 {
		t.Fatalf("span lock timings negative: %+v", span)
	}
	if span.Error != "" {
		t.Fatalf("span carries unexpected apply error %q", span.Error)
	}

	resp, err := http.Get(base + "/debug/requests?limit=10")
	if err != nil {
		t.Fatal(err)
	}
	var listing requestsResponse
	err = json.NewDecoder(resp.Body).Decode(&listing)
	_ = resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	byReq := map[string]bool{}
	for _, sp := range listing.Requests {
		byReq[sp.Req] = true
	}
	for _, r := range reqs {
		if !byReq[r] {
			t.Fatalf("/debug/requests listing missing %s (got %d spans)", r, len(listing.Requests))
		}
	}

	resp, err = http.Get(base + "/debug/requests/r-999999")
	if err != nil {
		t.Fatal(err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown request ID got %d, want 404", resp.StatusCode)
	}

	// The RED plane must have counted the submits and rendered quantiles,
	// beside the pacer histograms and the operational gauges.
	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	prom, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`serve_http_requests_total{endpoint="submit"}`,
		`serve_http_request_us{endpoint="submit",quantile="0.50"}`,
		`serve_http_request_us{endpoint="submit",quantile="0.99"}`,
		"serve_journal_flush_us",
		"serve_epoch_batch_size",
		"serve_pacer_lag_us",
		"journal_bytes",
		"applied_seq",
		"snapshot_age_seconds",
		"serve_trace_subscribers",
	} {
		if !strings.Contains(string(prom), want) {
			t.Fatalf("/metrics missing %q", want)
		}
	}
	stopServer(t, s, done)
}

// TestMetricsExportTrainStats scrapes the classifier's retraining counters
// off /metrics: every axis carries fits, fit seconds and epochs, in one
// sample group per counter, with 1 ≤ fits ≤ epochs (seeding the library
// already fits), and no scraped counter is ahead of the engine's own
// TrainStats.
func TestMetricsExportTrainStats(t *testing.T) {
	dir := t.TempDir()
	s, done := startServer(t, Options{
		Config:      Config{Servers: 10, Seed: 3},
		JournalPath: filepath.Join(dir, "run.journal"),
		Warp:        400,
	})
	base := "http://" + s.Addr()
	scrape := func() []byte {
		t.Helper()
		resp, err := http.Get(base + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = resp.Body.Close() }()
		prom, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return prom
	}
	scraped := func(prom []byte, name string, axis classify.Axis) float64 {
		t.Helper()
		m := regexp.MustCompile(`(?m)^` + name + `\{axis="` + axis.String() + `"\} (\S+)$`).FindSubmatch(prom)
		if m == nil {
			t.Fatalf("/metrics has no %s for axis %s", name, axis)
		}
		v, err := strconv.ParseFloat(string(m[1]), 64)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}

	postJSON(t, base, "/v1/submit", SubmitRequest{Type: "hadoop", Family: -1})
	prom := scrape()
	s.engineMu.Lock()
	stats := s.w.Q.Engine().TrainStats()
	s.engineMu.Unlock()
	stopServer(t, s, done)

	for i, st := range stats {
		axis := classify.Axis(i)
		fits := scraped(prom, "classify_fits_total", axis)
		seconds, epochs := scraped(prom, "classify_fit_seconds_total", axis), scraped(prom, "classify_fit_epochs_total", axis)
		if fits < 1 || epochs < fits || seconds < 0 {
			t.Errorf("%s: scraped fits %v, seconds %v, epochs %v: want 1 ≤ fits ≤ epochs", axis, fits, seconds, epochs)
		}
		if fits > float64(st.Fits) || epochs > float64(st.Epochs) || seconds > st.FitSeconds {
			t.Errorf("%s: scraped %v/%v/%v, ahead of the engine's %+v", axis, fits, seconds, epochs, st)
		}
	}
	if n := strings.Count(string(prom), "# TYPE classify_fits_total counter"); n != 1 {
		t.Errorf("classify_fits_total has %d TYPE headers, want one sample group", n)
	}
}

// TestFlightRecorderConcurrentWithAdmissions is the race lane for the flight
// recorder: dump /debug/flightrecorder (and the request ring) from several
// goroutines while admissions stream in and the pacer free-runs, and pin the
// dump's NDJSON Content-Type.
func TestFlightRecorderConcurrentWithAdmissions(t *testing.T) {
	dir := t.TempDir()
	s, done := startServer(t, Options{
		Config:      Config{Servers: 12, Seed: 5, FlightRecorder: 256},
		JournalPath: filepath.Join(dir, "run.journal"),
	})
	base := "http://" + s.Addr()

	postJSON(t, base, "/v1/submit", SubmitRequest{Type: "single-node", Family: -1, BestEffort: true})
	resp, err := http.Get(base + "/debug/flightrecorder")
	if err != nil {
		t.Fatal(err)
	}
	ct := resp.Header.Get("Content-Type")
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
	if ct != ndjsonContentType {
		t.Fatalf("/debug/flightrecorder Content-Type = %q, want %q", ct, ndjsonContentType)
	}

	var wg sync.WaitGroup
	errc := make(chan error, 8)
	deadline := time.Now().Add(120 * time.Millisecond)
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			paths := []string{"/debug/flightrecorder", "/debug/requests?limit=20", "/metrics"}
			for n := 0; time.Now().Before(deadline); n++ {
				resp, err := http.Get(base + paths[n%len(paths)])
				if err != nil {
					errc <- err
					return
				}
				if strings.HasPrefix(paths[n%len(paths)], "/debug/flightrecorder") {
					if _, err := obs.ReadJSONL(resp.Body); err != nil {
						_ = resp.Body.Close()
						errc <- fmt.Errorf("flight recorder dump unreadable mid-run: %w", err)
						return
					}
				} else {
					_, _ = io.Copy(io.Discard, resp.Body)
				}
				_ = resp.Body.Close()
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		body, _ := json.Marshal(SubmitRequest{Type: "single-node", Family: -1, BestEffort: true})
		for time.Now().Before(deadline) {
			resp, err := http.Post(base+"/v1/submit", "application/json", bytes.NewReader(body))
			if err != nil {
				errc <- err
				return
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			_ = resp.Body.Close()
			time.Sleep(time.Millisecond)
		}
	}()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	stopServer(t, s, done)
}

// TestReplayJournalWithoutReq is the backward-compatibility contract for
// pre-telemetry journals: entries without a req field replay cleanly, and the
// resulting trace simply omits the req arg from serve.apply instants.
func TestReplayJournalWithoutReq(t *testing.T) {
	dir := t.TempDir()
	journal := filepath.Join(dir, "run.journal")
	s, done := startServer(t, Options{
		Config:      Config{Servers: 10, Seed: 11},
		JournalPath: journal, Warp: 400,
	})
	base := "http://" + s.Addr()
	for i := 0; i < 3; i++ {
		postJSON(t, base, "/v1/submit", SubmitRequest{Type: "single-node", Family: -1, BestEffort: true})
		time.Sleep(2 * time.Millisecond)
	}
	time.Sleep(40 * time.Millisecond)
	stopServer(t, s, done)

	data, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	stripped := regexp.MustCompile(`,"req":"r-[0-9]+"`).ReplaceAll(data, nil)
	if bytes.Equal(stripped, data) {
		t.Fatal("journal carried no req fields to strip")
	}
	old := filepath.Join(dir, "old.journal")
	if err := os.WriteFile(old, stripped, 0o644); err != nil {
		t.Fatal(err)
	}

	tracePath := filepath.Join(dir, "old.jsonl")
	sink, err := obs.NewStreamSink(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Replay(old, ReplayOptions{Sinks: []obs.Sink{sink}})
	if err != nil {
		t.Fatalf("replaying req-less journal: %v", err)
	}
	if res.Applied != 3 {
		t.Fatalf("replay applied %d entries, want 3", res.Applied)
	}
	trace, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(trace, []byte(`"serve.apply"`)) {
		t.Fatal("replay trace has no serve.apply events")
	}
	if bytes.Contains(trace, []byte(`"req"`)) {
		t.Fatal("req-less journal replayed with req args in the trace")
	}
}

// TestStreamEndpointDeliversAndStops drives GET /v1/trace/stream over real
// HTTP: the response is NDJSON, begins with the trace header, carries
// serve.apply events whose req args match the admission responses, and the
// stream ends when the daemon shuts down.
func TestStreamEndpointDeliversAndStops(t *testing.T) {
	dir := t.TempDir()
	s, done := startServer(t, Options{
		Config:      Config{Servers: 10, Seed: 13},
		JournalPath: filepath.Join(dir, "run.journal"),
		Warp:        400,
	})
	base := "http://" + s.Addr()

	resp, err := http.Get(base + "/v1/trace/stream")
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != ndjsonContentType {
		t.Fatalf("stream Content-Type = %q, want %q", ct, ndjsonContentType)
	}
	type result struct {
		firstLine string
		applyReqs map[string]bool
		err       error
	}
	got := make(chan result, 1)
	go func() {
		defer func() { _ = resp.Body.Close() }()
		res := result{applyReqs: map[string]bool{}}
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
		for sc.Scan() {
			line := sc.Text()
			if res.firstLine == "" {
				res.firstLine = line
			}
			var ev struct {
				Seq  uint64 `json:"seq"`
				Name string `json:"name"`
				Args struct {
					Req string `json:"req"`
				} `json:"args"`
			}
			if json.Unmarshal([]byte(line), &ev) != nil || ev.Seq == 0 {
				continue
			}
			if ev.Name == "serve.apply" && ev.Args.Req != "" {
				res.applyReqs[ev.Args.Req] = true
			}
		}
		res.err = sc.Err()
		got <- res
	}()

	var reqs []string
	for i := 0; i < 3; i++ {
		m := postJSON(t, base, "/v1/submit", SubmitRequest{Type: "single-node", Family: -1, BestEffort: true})
		req, _ := m["req"].(string)
		reqs = append(reqs, req)
		time.Sleep(3 * time.Millisecond)
	}
	time.Sleep(40 * time.Millisecond)
	stopServer(t, s, done)

	res := <-got
	if res.err != nil {
		t.Fatalf("stream reader: %v", res.err)
	}
	if !strings.Contains(res.firstLine, `"trace"`) {
		t.Fatalf("stream did not begin with the trace header: %q", res.firstLine)
	}
	for _, r := range reqs {
		if !res.applyReqs[r] {
			t.Fatalf("stream never carried serve.apply for %s (saw %v)", r, res.applyReqs)
		}
	}
}
