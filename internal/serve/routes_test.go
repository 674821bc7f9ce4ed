package serve

import (
	"fmt"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestEveryRouteCountsUnderItsLabel sends one request to every route of
// apiRoutes, and one to a path no route serves, through the daemon's
// handler, then reads each label's serve_http_requests_total off /metrics.
// The label order is the one /metrics has always printed.
func TestEveryRouteCountsUnderItsLabel(t *testing.T) {
	wantLabels := []string{
		"submit", "target", "evict", "shutdown", "workloads", "workload",
		"healthz", "metrics", "flightrecorder", "statusz", "requests",
		"trace-stream", "other",
	}
	if got := endpointLabels(); !slices.Equal(got, wantLabels) {
		t.Fatalf("endpointLabels() = %q, want %q", got, wantLabels)
	}
	s, done := startServer(t, Options{
		Config:      Config{Servers: 8, Seed: 5},
		JournalPath: filepath.Join(t.TempDir(), "run.journal"),
	})
	defer stopServer(t, s, done)
	serve := func(method, path string) string {
		rec := httptest.NewRecorder()
		s.httpSrv.Handler.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader("{}")))
		return rec.Body.String()
	}
	want := map[string]int{otherEndpoint: 1}
	serve("GET", "/v1/no-such-route")
	// Shutdown goes last, so every other route meets a running daemon.
	for _, last := range []bool{false, true} {
		for _, rt := range apiRoutes {
			if (rt.label == "shutdown") != last {
				continue
			}
			path := strings.Replace(rt.path, "{id}", "w-1", 1)
			if rt.label == "trace-stream" {
				path += "?n=-1" // answered 400 at once instead of streaming
			}
			serve(rt.method, path)
			want[rt.label]++
		}
	}
	prom := serve("GET", "/metrics")
	for _, label := range wantLabels {
		line := fmt.Sprintf("serve_http_requests_total{endpoint=%q} %d\n", label, want[label])
		if !strings.Contains(prom, line) {
			t.Errorf("/metrics lacks %q", line)
		}
	}
	if n := testing.AllocsPerRun(100, func() {
		_ = endpointOf("/v1/submit")
		_ = endpointOf("/debug/requests/7")
		_ = endpointOf("/v1/no-such-route")
	}); n != 0 {
		t.Errorf("endpointOf allocates %v times per call set, want 0", n)
	}
}
