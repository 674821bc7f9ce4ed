package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"quasar/internal/obs"
)

// startServer boots a daemon on a free port and returns it with the channel
// Serve's result lands on.
func startServer(t *testing.T, opts Options) (*Server, chan error) {
	t.Helper()
	if opts.Addr == "" {
		opts.Addr = "127.0.0.1:0"
	}
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Serve() }()
	return s, done
}

// stopServer shuts the daemon down and fails the test on a serve error.
func stopServer(t *testing.T, s *Server, done chan error) {
	t.Helper()
	// A connection the test's transport dialed but never sent a request on
	// is not idle to http.Server.Shutdown until it is 5 s old — the whole
	// drain budget. Drop the client's spare connections first.
	http.DefaultClient.CloseIdleConnections()
	s.Shutdown()
	if err := <-done; err != nil {
		t.Fatalf("serve: %v", err)
	}
}

func postJSON(t *testing.T, base, path string, body any) map[string]any {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+path, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode >= 300 {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST %s: %s: %s", path, resp.Status, msg)
	}
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

// driveScriptedMix submits the standard scripted admission mix against a live
// daemon and returns the promised service ID.
func driveScriptedMix(t *testing.T, base string) string {
	t.Helper()
	for i := 0; i < 2; i++ {
		postJSON(t, base, "/v1/submit", SubmitRequest{Type: "single-node", Family: -1, BestEffort: true})
		time.Sleep(2 * time.Millisecond)
	}
	m := postJSON(t, base, "/v1/submit", SubmitRequest{Type: "webserver", Family: -1, QPS: 8000, LatencyUS: 900, MaxNodes: 3})
	svcID, _ := m["workload"].(string)
	if svcID == "" {
		t.Fatal("submit returned no workload ID")
	}
	time.Sleep(3 * time.Millisecond)
	postJSON(t, base, "/v1/submit", SubmitRequest{Type: "hadoop", Family: 1, MaxNodes: 3, TargetSlack: 1.3})
	time.Sleep(30 * time.Millisecond) // let the service admit before retargeting
	postJSON(t, base, "/v1/target/"+svcID, TargetUpdate{QPS: 9000})
	return svcID
}

// TestLiveVsReplay is the serve determinism contract: a live run with
// wall-clock arrival jitter and SLO monitoring on, stopped through its own
// shutdown endpoint, is reproduced byte for byte by a warm standby that
// tailed the journal while it was written, and by an offline replay of that
// journal.
func TestLiveVsReplay(t *testing.T) {
	dir := t.TempDir()
	journal := filepath.Join(dir, "run.journal")
	traceA := filepath.Join(dir, "live.jsonl")
	traceStandby := filepath.Join(dir, "standby.jsonl")
	s, done := startServer(t, Options{
		Config:      Config{Servers: 20, Seed: 7, SLO: true},
		JournalPath: journal, TracePath: traceA, Warp: 400,
	})
	standbySink, err := obs.NewStreamSink(traceStandby)
	if err != nil {
		t.Fatal(err)
	}
	standbyDone := make(chan error, 1)
	go func() {
		_, err := Replay(journal, ReplayOptions{
			Sinks: []obs.Sink{standbySink}, Follow: true,
			PollInterval: 2 * time.Millisecond, WaitTimeout: 60 * time.Second,
		})
		standbyDone <- err
	}()

	base := "http://" + s.Addr()
	svcID := driveScriptedMix(t, base)
	resp, err := http.Get(base + "/v1/workloads/" + svcID)
	if err != nil {
		t.Fatal(err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/workloads/%s: %s", svcID, resp.Status)
	}
	time.Sleep(60 * time.Millisecond) // a few quiet epochs after the last admission
	postJSON(t, base, "/v1/shutdown", struct{}{})
	http.DefaultClient.CloseIdleConnections()
	if err := <-done; err != nil {
		t.Fatalf("serve: %v", err)
	}
	if err := <-standbyDone; err != nil {
		t.Fatalf("standby: %v", err)
	}

	want, err := os.ReadFile(traceA)
	if err != nil {
		t.Fatal(err)
	}
	standby, err := os.ReadFile(traceStandby)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, standby) {
		t.Fatalf("standby trace diverged from live (%d vs %d bytes)", len(want), len(standby))
	}
	tracePath := filepath.Join(dir, "replay.jsonl")
	sink, err := obs.NewStreamSink(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Replay(journal, ReplayOptions{Sinks: []obs.Sink{sink}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Truncated {
		t.Fatal("graceful shutdown left a truncated journal")
	}
	got, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Fatalf("replay trace diverged from live (%d vs %d bytes)", len(want), len(got))
	}
}

// TestGracefulShutdownArtifacts checks the SIGTERM path (Shutdown is exactly
// what the signal handler calls): the journal carries an end marker, the
// streamed trace is finalized and parseable, and the final warm snapshot
// restores and verifies against an offline replay.
func TestGracefulShutdownArtifacts(t *testing.T) {
	dir := t.TempDir()
	journal := filepath.Join(dir, "run.journal")
	trace := filepath.Join(dir, "run.jsonl")
	snapshot := filepath.Join(dir, "run.snapshot.json")
	s, done := startServer(t, Options{
		Config:      Config{Servers: 20, Seed: 9},
		JournalPath: journal, TracePath: trace,
		SnapshotPath: snapshot, SnapshotEverySecs: 1e9, // only the final shutdown snapshot
		Warp: 400,
	})
	base := "http://" + s.Addr()
	postJSON(t, base, "/v1/submit", SubmitRequest{Type: "single-node", Family: -1, BestEffort: true})
	postJSON(t, base, "/v1/submit", SubmitRequest{Type: "memcached", Family: -1, QPS: 6000, LatencyUS: 500, MaxNodes: 2})
	time.Sleep(40 * time.Millisecond)
	stopServer(t, s, done)

	f, err := os.Open(trace)
	if err != nil {
		t.Fatalf("finalized trace missing: %v", err)
	}
	events, err := obs.ReadJSONL(f)
	_ = f.Close()
	if err != nil {
		t.Fatalf("finalized trace unreadable: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("finalized trace is empty")
	}

	snap, err := LoadSnapshot(snapshot)
	if err != nil {
		t.Fatalf("final snapshot unrestorable: %v", err)
	}
	res, err := Replay(journal, ReplayOptions{Snapshot: snap})
	if err != nil {
		t.Fatal(err)
	}
	if res.Truncated {
		t.Fatal("graceful shutdown left a journal without an end marker")
	}
	if res.Applied != 2 {
		t.Fatalf("replay applied %d entries, want 2", res.Applied)
	}
	if !res.SnapshotVerified {
		t.Fatalf("final snapshot at t=%g never verified (replay ended at t=%g)", snap.SimTime, res.EndAt)
	}
}

// TestNewOnBusyAddrKeepsJournal is the second-daemon guard: a daemon that
// cannot bind its address fails without touching the journal path, which may
// be the system of record of the daemon already holding that address.
func TestNewOnBusyAddrKeepsJournal(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ln.Close() }()
	newFailsKeepingJournal(t, ln.Addr().String())
}

// TestNewOnExistingJournalKeepsIt is the restart guard: a daemon started on
// the journal path of an earlier run — say, after a crash — refuses to start
// rather than truncate the file one would replay, and says so.
func TestNewOnExistingJournalKeepsIt(t *testing.T) {
	journal, err := newFailsKeepingJournal(t, "127.0.0.1:0")
	if !errors.Is(err, os.ErrExist) || !strings.Contains(err.Error(), journal) || !strings.Contains(err.Error(), "-replay") {
		t.Fatalf("error %q should be ErrExist, name the journal and point at -replay", err)
	}
}

// newFailsKeepingJournal requires New on addr to fail when its journal path
// already holds a file, and to leave that file byte-identical. It returns
// the journal path and New's error.
func newFailsKeepingJournal(t *testing.T, addr string) (string, error) {
	t.Helper()
	journal := filepath.Join(t.TempDir(), "run.journal")
	want := []byte("an earlier daemon's journal\n")
	if err := os.WriteFile(journal, want, 0o644); err != nil {
		t.Fatal(err)
	}
	_, newErr := New(Options{
		Addr:        addr,
		Config:      Config{Servers: 8, Seed: 5},
		JournalPath: journal,
	})
	if newErr == nil {
		t.Fatal("New succeeded over an existing journal")
	}
	got, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("failed New rewrote the journal: %q, want %q", got, want)
	}
	return journal, newErr
}

// TestMetricsExporterConcurrentWithPacer hammers every read endpoint from
// several goroutines while the pacer free-runs and admissions stream in —
// the race-lane test for exporter-vs-engine synchronization, plus the
// Prometheus Content-Type contract.
func TestMetricsExporterConcurrentWithPacer(t *testing.T) {
	dir := t.TempDir()
	s, done := startServer(t, Options{
		Config:      Config{Servers: 16, Seed: 3},
		JournalPath: filepath.Join(dir, "run.journal"),
	})
	base := "http://" + s.Addr()

	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	ct := resp.Header.Get("Content-Type")
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
	if ct != promContentType {
		t.Fatalf("/metrics Content-Type = %q, want %q", ct, promContentType)
	}

	var wg sync.WaitGroup
	errc := make(chan error, 8)
	deadline := time.Now().Add(120 * time.Millisecond)
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			paths := []string{"/metrics", "/statusz", "/healthz", "/v1/workloads?limit=5"}
			for n := 0; time.Now().Before(deadline); n++ {
				resp, err := http.Get(base + paths[n%len(paths)])
				if err != nil {
					errc <- err
					return
				}
				_, _ = io.Copy(io.Discard, resp.Body)
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

// TestSubmitValidation pins the 400-level contract of the admission API.
func TestSubmitValidation(t *testing.T) {
	dir := t.TempDir()
	s, done := startServer(t, Options{
		Config:      Config{Servers: 8, Seed: 5},
		JournalPath: filepath.Join(dir, "run.journal"),
	})
	defer stopServer(t, s, done)
	base := "http://" + s.Addr()

	post := func(path, body string) int {
		t.Helper()
		resp, err := http.Post(base+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
		return resp.StatusCode
	}
	cases := []struct {
		name, path, body string
		want             int
	}{
		{"unknown type", "/v1/submit", `{"type":"mapreduce"}`, 400},
		{"unknown field", "/v1/submit", `{"type":"webserver","qqps":100}`, 400},
		{"negative qps", "/v1/submit", `{"type":"webserver","qps":-5}`, 400},
		{"malformed json", "/v1/submit", `{"type":`, 400},
		{"bad family", "/v1/submit", `{"type":"hadoop","family":99}`, 400},
		{"empty target", "/v1/target/x-0001", `{}`, 400},
		{"negative target", "/v1/target/x-0001", `{"qps":-1}`, 400},
		{"two submit bodies", "/v1/submit", `{"type":"single-node","best_effort":true}{"type":"hadoop"}`, 400},
		{"trailing target bytes", "/v1/target/x-0001", `{"qps":5} x`, 400},
		{"good submit", "/v1/submit", `{"type":"single-node","best_effort":true}`, 202},
		{"trailing whitespace", "/v1/submit", "{\"type\":\"single-node\",\"best_effort\":true} \r\n", 202},
	}
	for _, tc := range cases {
		if got := post(tc.path, tc.body); got != tc.want {
			t.Errorf("%s: POST %s got %d, want %d", tc.name, tc.path, got, tc.want)
		}
	}
	resp, err := http.Get(base + "/v1/workloads/nope-9999")
	if err != nil {
		t.Fatal(err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET unknown workload got %d, want 404", resp.StatusCode)
	}
}

// TestCountParamsRejectNegative pins the listing endpoints' count
// parameters: 0 means "all", a negative or malformed count is a 400 rather
// than a silent full listing.
func TestCountParamsRejectNegative(t *testing.T) {
	s, done := startServer(t, Options{
		Config:      Config{Servers: 8, Seed: 5},
		JournalPath: filepath.Join(t.TempDir(), "run.journal"),
	})
	defer stopServer(t, s, done)
	base := "http://" + s.Addr()
	cases := []struct {
		path string
		want int
	}{
		{"/v1/workloads?limit=-5", 400},
		{"/v1/workloads?limit=x", 400},
		{"/v1/workloads?limit=0", 200},
		{"/v1/workloads?limit=5", 200},
		{"/debug/requests?limit=-5", 400},
		{"/debug/requests?limit=1.5", 400},
		{"/debug/requests?limit=0", 200},
		{"/v1/trace/stream?n=-5", 400},
	}
	for _, tc := range cases {
		resp, err := http.Get(base + tc.path)
		if err != nil {
			t.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("GET %s got %d, want %d", tc.path, resp.StatusCode, tc.want)
		}
	}
}

// TestFlightRecorderDump checks /debug/flightrecorder returns a parseable
// NDJSON window of recent events.
func TestFlightRecorderDump(t *testing.T) {
	dir := t.TempDir()
	s, done := startServer(t, Options{
		Config:         Config{Servers: 8, Seed: 5},
		FlightRecorder: 128,
		JournalPath:    filepath.Join(dir, "run.journal"),
	})
	base := "http://" + s.Addr()
	postJSON(t, base, "/v1/submit", SubmitRequest{Type: "single-node", Family: -1, BestEffort: true})
	time.Sleep(20 * time.Millisecond)
	resp, err := http.Get(base + "/debug/flightrecorder")
	if err != nil {
		t.Fatal(err)
	}
	events, err := obs.ReadJSONL(resp.Body)
	_ = resp.Body.Close()
	if err != nil {
		t.Fatalf("flight recorder dump unreadable: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("flight recorder dump is empty")
	}
	if len(events) > 128 {
		t.Fatalf("flight recorder returned %d events, capacity is 128", len(events))
	}
	stopServer(t, s, done)
}
