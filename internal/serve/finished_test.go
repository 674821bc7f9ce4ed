package serve

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"quasar/internal/core"
	"quasar/internal/experiments"
	"quasar/internal/loadgen"
	"quasar/internal/obs"
	"quasar/internal/workload"
)

// TestFinishedWorkloadParity pins, byte for byte, everything the API answers
// about workloads that have completed: GET /v1/workloads/{id} and the
// listing (total and submission order, a live service between the two
// finished workloads), the apply outcome and trace lines of target updates
// and evictions sent to them, and the tasks_total gauge on /metrics. The
// golden transcript is what a runtime that kept every completed task whole
// answered, so it holds the retired records to those answers.
func TestFinishedWorkloadParity(t *testing.T) {
	trace := obs.NewBufferSink()
	w, err := buildWorld(Config{Servers: 4, Seed: 11}, trace)
	if err != nil {
		t.Fatal(err)
	}
	s := &Server{w: w}

	job := w.U.New(workload.Spec{Type: workload.SingleNode, Family: -1, TargetSlack: 1.3})
	job.Genome.Work = 50
	svc := w.U.New(workload.Spec{Type: workload.Webserver, Family: -1, MaxNodes: 2})
	be := w.U.New(workload.Spec{Type: workload.SingleNode, Family: -1, BestEffort: true})
	be.Genome.Work = 1
	var tasks []*core.Task
	for i, inst := range []*workload.Instance{job, svc, be} {
		var load loadgen.Pattern
		if inst == svc {
			load = experiments.ServiceLoad(inst)
		}
		tasks = append(tasks, w.RT.Submit(inst, float64(i), load))
	}
	w.RT.Run(600)
	for i, want := range []core.Status{core.StatusCompleted, core.StatusRunning, core.StatusCompleted} {
		if got := tasks[i].Status; got != want {
			t.Fatalf("%s is %v at t=600, want %v", tasks[i].W.ID, got, want)
		}
	}

	var out strings.Builder
	get := func(path string, h func(http.ResponseWriter, *http.Request), id string) {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodGet, path, nil)
		if id != "" {
			req.SetPathValue("id", id)
		}
		h(rec, req)
		fmt.Fprintf(&out, "GET %s: %d %s", path, rec.Code, rec.Body.String())
	}
	var outcome string
	w.onApplied = func(_ *Entry, applyErr string) { outcome = applyErr }
	seq := 0
	apply := func(what string, e Entry) {
		seq++
		e.Seq = seq
		mark := len(trace.Events())
		if err := w.apply(&e); err != nil {
			t.Fatalf("%s: apply: %v", what, err)
		}
		fmt.Fprintf(&out, "%s: outcome %q\n", what, outcome)
		var buf bytes.Buffer
		if err := obs.WriteEventsJSONL(&buf, nil, trace.Events()[mark:]); err != nil {
			t.Fatal(err)
		}
		out.Write(buf.Bytes())
	}

	for _, id := range []string{job.ID, be.ID} {
		get("/v1/workloads/"+id, s.handleWorkload, id)
	}
	get("/v1/workloads?limit=0", s.handleWorkloads, "")
	get("/v1/workloads?limit=1", s.handleWorkloads, "")
	apply("POST /v1/target/"+job.ID+" ips", Entry{Kind: KindTarget, Workload: job.ID, Target: &TargetUpdate{IPS: 7.5}})
	apply("POST /v1/target/"+job.ID+" qps", Entry{Kind: KindTarget, Workload: job.ID, Target: &TargetUpdate{QPS: 900, LatencyUS: 250}})
	get("/v1/workloads/"+job.ID, s.handleWorkload, job.ID)
	apply("POST /v1/target/"+be.ID, Entry{Kind: KindTarget, Workload: be.ID, Target: &TargetUpdate{IPS: 3}})
	apply("POST /v1/evict/"+be.ID, Entry{Kind: KindEvict, Workload: be.ID})
	apply("POST /v1/evict/"+job.ID, Entry{Kind: KindEvict, Workload: job.ID})
	get("/v1/workloads/"+be.ID, s.handleWorkload, be.ID)
	get("/v1/workloads/single-node-9999", s.handleWorkload, "single-node-9999")

	prom, err := s.promSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.SplitAfter(string(prom), "\n") {
		if strings.Contains(line, "tasks_total") {
			out.WriteString("metrics: " + line)
		}
	}

	const golden = "testdata/finished_workloads.golden"
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != string(want) {
		t.Errorf("finished-workload transcript differs from %s\ngot:\n%s\nwant:\n%s", golden, got, want)
	}
}
