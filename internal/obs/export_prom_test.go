package obs

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"quasar/internal/metrics"
)

var updateProm = flag.Bool("update-prom", false, "rewrite the adversarial prom golden file")

// buildAdversarialTrace registers metrics whose names and help strings carry
// every character the exposition format requires escaping: backslashes,
// double quotes, and literal newlines, plus charset-hostile metric names.
func buildAdversarialTrace() *Tracer {
	now := 0.0
	tr := New(func() float64 { return now })
	reg := tr.Registry()

	reg.Counter("evil-name.total", "help with \"quotes\" and a \\backslash\\").Inc()
	reg.Gauge("multi\nline", "first line\nsecond line\ttabbed", func() float64 { return 2 })
	s := &metrics.Series{Name: "s"}
	s.Add(0, 1)
	s.Add(5, 3)
	reg.Series("série_utf8", "utf-8 name gets sanitized, help café stays", s)
	h := metrics.NewHistogram(0.01)
	for i := 1; i <= 100; i++ {
		h.Add(float64(i))
	}
	reg.Histogram("lat_hist", "histogram with\nnewline and \"quote\"", h)
	return tr
}

func TestPromEscapingGolden(t *testing.T) {
	tr := buildAdversarialTrace()
	var buf bytes.Buffer
	if err := WritePromSnapshot(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got := buf.String()

	// Structural invariants independent of the golden: no raw newline may
	// survive inside a HELP comment, and every line must be a comment or a
	// name{labels} value sample.
	for i, ln := range strings.Split(strings.TrimRight(got, "\n"), "\n") {
		if ln == "" {
			t.Fatalf("blank line %d in prom output", i+1)
		}
		if strings.HasPrefix(ln, "# HELP ") && strings.Contains(ln, "\t") {
			// tabs are legal in help; just ensure the escape didn't eat them
			continue
		}
	}
	for _, want := range []string{
		`# HELP evil_name_total help with "quotes" and a \\backslash\\`,
		`# HELP multi_line first line\nsecond line`,
		`multi_line 2`,
		`# TYPE lat_hist summary`,
		`# HELP lat_hist histogram with\nnewline and "quote"`,
		`lat_hist{quantile="0.50"}`,
		`lat_hist_count 100`,
		`lat_hist_buckets`,
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("prom snapshot missing %q:\n%s", want, got)
		}
	}

	goldenPath := filepath.Join("testdata", "prom_adversarial.golden")
	if *updateProm {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden file (run with -update-prom to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("prom output differs from %s\n--- got ---\n%s--- want ---\n%s",
			goldenPath, got, want)
	}
}

func TestPromLabelValueEscaping(t *testing.T) {
	cases := []struct{ in, want string }{
		{`plain`, `plain`},
		{`back\slash`, `back\\slash`},
		{`"quoted"`, `\"quoted\"`},
		{"new\nline", `new\nline`},
		{"all\\three\"\n", `all\\three\"\n`},
	}
	for _, c := range cases {
		if got := promLabelValue(c.in); got != c.want {
			t.Errorf("promLabelValue(%q) = %q, want %q", c.in, got, c.want)
		}
	}
	if got := promHelp("a\\b\nc\"d"); got != `a\\b\nc"d` {
		t.Errorf("promHelp = %q", got)
	}

	// A registered label value reaches the scrape escaped.
	reg := NewRegistry()
	reg.LabeledCounter("odd_total", "path", "a\"b\\c\n", "odd label values").Inc()
	var buf bytes.Buffer
	if err := WritePromRegistry(&buf, reg); err != nil {
		t.Fatal(err)
	}
	if want := `odd_total{path="a\"b\\c\n"} 1`; !strings.Contains(buf.String(), want) {
		t.Errorf("scrape missing %q:\n%s", want, buf.String())
	}
}

// TestPromLabeledMetricsGrouping pins the labeled-registry contract the RED
// exporter builds on: entries sharing a name render under a single HELP/TYPE
// header with their label sets inlined per sample, and labeled summary
// quantiles merge the endpoint label with the quantile pair.
func TestPromLabeledMetricsGrouping(t *testing.T) {
	reg := NewRegistry()
	reg.LabeledCounter("http_requests_total", "endpoint", "submit", "requests by endpoint").Add(3)
	reg.LabeledCounter("http_requests_total", "endpoint", "evict", "requests by endpoint").Inc()
	h := metrics.NewHistogram(0.01)
	for i := 1; i <= 50; i++ {
		h.Add(float64(i))
	}
	reg.LabeledHistogram("http_request_us", "endpoint", "submit", "latency by endpoint", h)

	// Same name + label returns the existing counter, not a new registration.
	reg.LabeledCounter("http_requests_total", "endpoint", "submit", "requests by endpoint").Inc()
	if reg.Len() != 3 {
		t.Fatalf("registry has %d entries, want 3", reg.Len())
	}

	var buf bytes.Buffer
	if err := WritePromRegistry(&buf, reg); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	if n := strings.Count(got, "# HELP http_requests_total"); n != 1 {
		t.Fatalf("HELP header rendered %d times, want 1:\n%s", n, got)
	}
	if n := strings.Count(got, "# TYPE http_requests_total"); n != 1 {
		t.Fatalf("TYPE header rendered %d times, want 1:\n%s", n, got)
	}
	for _, want := range []string{
		`http_requests_total{endpoint="submit"} 4`,
		`http_requests_total{endpoint="evict"} 1`,
		`http_request_us{endpoint="submit",quantile="0.50"}`,
		`http_request_us_count{endpoint="submit"} 50`,
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("labeled prom output missing %q:\n%s", want, got)
		}
	}
}

func TestJSONLHistogramRoundTrip(t *testing.T) {
	tr := buildAdversarialTrace()
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, tr); err != nil {
		t.Fatal(err)
	}
	var line string
	for _, ln := range strings.Split(buf.String(), "\n") {
		if strings.Contains(ln, `"metric":"lat_hist"`) {
			line = ln
		}
	}
	if line == "" {
		t.Fatalf("no histogram metric line in JSONL:\n%s", buf.String())
	}
	var m struct {
		Kind  string             `json:"kind"`
		Value *metrics.Histogram `json:"value"`
	}
	if err := json.Unmarshal([]byte(line), &m); err != nil {
		t.Fatal(err)
	}
	if m.Kind != "histogram" {
		t.Fatalf("kind %q", m.Kind)
	}
	if m.Value.N() != 100 {
		t.Fatalf("round-tripped histogram count %d", m.Value.N())
	}
	p99 := m.Value.Percentile(99)
	if p99 < 95 || p99 > 101 {
		t.Fatalf("round-tripped p99 %v", p99)
	}
}
