package serve

import (
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
	"testing"
	"time"

	"quasar/internal/obs"
	"quasar/internal/par"
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

// TestLiveVsReplayAcrossWorkers is the serve determinism contract: a live run
// with wall-clock arrival jitter, replayed from its journal at several worker
// counts, must reproduce the trace byte for byte every time.
func TestLiveVsReplayAcrossWorkers(t *testing.T) {
	dir := t.TempDir()
	journal := filepath.Join(dir, "run.journal")
	traceA := filepath.Join(dir, "live.jsonl")
	s, done := startServer(t, Options{
		Config:      Config{Servers: 20, Seed: 7},
		JournalPath: journal, TracePath: traceA, Warp: 400,
	})
	driveScriptedMix(t, "http://"+s.Addr())
	time.Sleep(60 * time.Millisecond) // a few quiet epochs after the last admission
	stopServer(t, s, done)

	want, err := os.ReadFile(traceA)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4, runtime.NumCPU()} {
		par.SetDefaultWorkers(workers)
		tracePath := filepath.Join(dir, fmt.Sprintf("replay-%d.jsonl", workers))
		sink, err := obs.NewStreamSink(tracePath)
		if err != nil {
			par.SetDefaultWorkers(0)
			t.Fatal(err)
		}
		res, err := Replay(journal, ReplayOptions{Sinks: []obs.Sink{sink}})
		par.SetDefaultWorkers(0)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if res.Truncated {
			t.Fatalf("workers=%d: graceful shutdown left a truncated journal", workers)
		}
		got, err := os.ReadFile(tracePath)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want, got) {
			t.Fatalf("workers=%d: replay trace diverged from live (%d vs %d bytes)", workers, len(want), len(got))
		}
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
		{"good submit", "/v1/submit", `{"type":"single-node","best_effort":true}`, 202},
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

// TestFlightRecorderDump checks /debug/flightrecorder returns a parseable
// NDJSON window of recent events.
func TestFlightRecorderDump(t *testing.T) {
	dir := t.TempDir()
	s, done := startServer(t, Options{
		Config:      Config{Servers: 8, Seed: 5, FlightRecorder: 128},
		JournalPath: filepath.Join(dir, "run.journal"),
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
