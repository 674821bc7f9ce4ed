package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"quasar/internal/metrics"
)

// buildSampleTrace assembles a small trace exercising every event phase and
// every registry kind.
func buildSampleTrace() *Tracer {
	now := 0.0
	tr := New(func() float64 { return now })
	tr.Instant("manager", "sched", "admit", Arg{Key: "workload", Val: "w0"})
	tr.BeginAsync("w0@2", "server/2", "place", "w0",
		Arg{Key: "cores", Val: 4}, Arg{Key: "quality", Val: 0.75})
	now = 10
	tr.Begin("manager", "sched", "decision")
	now = 12.5
	tr.End("manager", "sched", "decision")
	tr.EndAsync("w0@2", "server/2", "place", "w0")
	tr.Counter("cluster", "util", "servers_busy", Arg{Key: "busy", Val: 3})
	tr.Instant("workload/w0", "qos", "met")

	reg := tr.Registry()
	reg.Counter("decisions_total", "scheduler decisions").Add(2)
	reg.Gauge("queue_len", "queue length", func() float64 { return 1 })
	s := &metrics.Series{Name: "util"}
	s.Add(0, 0.5)
	s.Add(10, 0.7)
	reg.Series("cluster_util", "cluster utilization", s)
	lat := metrics.NewHistogram(0.01)
	lat.Add(1)
	lat.Add(2)
	lat.Add(3)
	reg.Histogram("latency", "placement latency", lat)
	h := metrics.NewHeatmap(2)
	h.Sample(0, []float64{0.1, 0.2})
	reg.Heatmap("cpu_heat", "per-server cpu", h)
	return tr
}

func TestJSONLRoundTrip(t *testing.T) {
	tr := buildSampleTrace()
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, tr); err != nil {
		t.Fatal(err)
	}
	evs, err := ReadJSONL(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != tr.Len() {
		t.Fatalf("read %d events, wrote %d", len(evs), tr.Len())
	}
	for i, ev := range evs {
		want := tr.Events()[i]
		if ev.Seq != want.Seq || ev.Name != want.Name || ev.Track != want.Track ||
			ev.Ph != string(want.Phase) || ev.T != want.Time { //lint:allow(floatcmp) exact round-trip
			t.Fatalf("event %d mismatch: %+v vs %+v", i, ev, want)
		}
	}
	// Args decode with preserved values.
	var args map[string]any
	if err := json.Unmarshal(evs[1].Args, &args); err != nil {
		t.Fatal(err)
	}
	if args["cores"].(float64) != 4 || args["quality"].(float64) != 0.75 { //lint:allow(floatcmp) exact round-trip
		t.Fatalf("async place args %v", args)
	}
	// Metric lines decode back into their containers.
	var gotSeries *metrics.Series
	for _, ln := range strings.Split(buf.String(), "\n") {
		if !strings.Contains(ln, `"metric":"cluster_util"`) {
			continue
		}
		var m struct {
			Value metrics.Series `json:"value"`
		}
		if err := json.Unmarshal([]byte(ln), &m); err != nil {
			t.Fatal(err)
		}
		gotSeries = &m.Value
	}
	if gotSeries == nil || gotSeries.Len() != 2 || gotSeries.Vals[1] != 0.7 { //lint:allow(floatcmp) exact round-trip
		t.Fatalf("series metric line did not round-trip: %+v", gotSeries)
	}
}

func TestChromeTraceIsValidAndOrdered(t *testing.T) {
	tr := buildSampleTrace()
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			ID   string         `json:"id"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v\n%s", err, buf.String())
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit %q", doc.DisplayTimeUnit)
	}
	// Metadata first: process_name, then thread_name/thread_sort_index pairs
	// for each track in display order.
	if doc.TraceEvents[0].Name != "process_name" {
		t.Fatalf("first record %q", doc.TraceEvents[0].Name)
	}
	var threadNames []string
	sawAsync := false
	for _, ev := range doc.TraceEvents {
		if ev.Name == "thread_name" {
			threadNames = append(threadNames, ev.Args["name"].(string))
		}
		if ev.Ph == "b" {
			sawAsync = true
			if ev.ID == "" {
				t.Fatal("async begin without id")
			}
			if ev.Ts != 0 {
				t.Fatalf("async begin ts %v", ev.Ts)
			}
		}
	}
	if !sawAsync {
		t.Fatal("no async placement span in chrome trace")
	}
	want := []string{"cluster", "manager", "server/2", "workload/w0"}
	if len(threadNames) != len(want) {
		t.Fatalf("tracks %v", threadNames)
	}
	for i := range want {
		if threadNames[i] != want[i] {
			t.Fatalf("track order %v, want %v", threadNames, want)
		}
	}
}

func TestTrackOrderNumericServers(t *testing.T) {
	got := trackOrder([]string{"server/10", "workload/b", "server/2", "cluster", "manager", "workload/a"})
	want := []string{"cluster", "manager", "server/2", "server/10", "workload/a", "workload/b"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order %v, want %v", got, want)
		}
	}
}

func TestPromSnapshotFormat(t *testing.T) {
	tr := buildSampleTrace()
	var buf bytes.Buffer
	if err := WritePromSnapshot(&buf, tr); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE obs_events_total counter",
		"obs_events_total 7",
		"# TYPE decisions_total counter",
		"decisions_total 2",
		"# TYPE queue_len gauge",
		"queue_len 1",
		"cluster_util_last 0.7",
		"cluster_util_points 2",
		"# TYPE latency summary",
		`latency{quantile="0.50"}`,
		"latency_count 3",
		"cpu_heat_rows 2",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prom snapshot missing %q:\n%s", want, out)
		}
	}
}

func TestExportersAreByteStable(t *testing.T) {
	render := func() (string, string, string) {
		tr := buildSampleTrace()
		var a, b, c bytes.Buffer
		if err := WriteJSONL(&a, tr); err != nil {
			t.Fatal(err)
		}
		if err := WriteChromeTrace(&b, tr); err != nil {
			t.Fatal(err)
		}
		if err := WritePromSnapshot(&c, tr); err != nil {
			t.Fatal(err)
		}
		return a.String(), b.String(), c.String()
	}
	j1, c1, p1 := render()
	for i := 0; i < 3; i++ {
		j2, c2, p2 := render()
		if j1 != j2 || c1 != c2 || p1 != p2 {
			t.Fatal("exporter output varies across identical runs")
		}
	}
}
