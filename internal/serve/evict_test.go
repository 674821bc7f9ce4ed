package serve

import (
	"testing"

	"quasar/internal/core"
	"quasar/internal/obs"
	"quasar/internal/workload"
)

// TestEvictOfUnplacedWorkloadIsNoOp: POST /v1/evict/{id} on a best-effort
// workload that holds no placement — finished, or waiting in the admission
// queue — must change nothing. It used to flip a completed task back to
// queued (and re-run it) and to duplicate a queued task's entry. The apply
// outcome stays a plain serve.apply, not an apply-error, so a client racing
// a completion sees the same result as before.
func TestEvictOfUnplacedWorkloadIsNoOp(t *testing.T) {
	trace := obs.NewBufferSink()
	w, err := buildWorld(Config{Servers: 4, Seed: 9}, trace)
	if err != nil {
		t.Fatal(err)
	}
	submit := func(work float64) *core.Task {
		inst := w.U.New(workload.Spec{Type: workload.SingleNode, Family: -1, BestEffort: true})
		inst.Genome.Work = work
		return w.RT.Submit(inst, w.RT.Eng.Now(), nil)
	}
	short := submit(1)
	w.RT.Run(30)
	if short.Status != core.StatusCompleted {
		t.Fatalf("short filler is %v after 30s, want completed", short.Status)
	}
	// Saturate the four servers so later fillers wait in the queue.
	var queued *core.Task
	for i := 0; i < 200; i++ {
		queued = submit(1e12)
	}
	w.RT.Run(40)
	if queued.Status != core.StatusQueued || queued.NumNodes() != 0 || w.Q.QueueLen() == 0 {
		t.Fatalf("last filler is %v on %d nodes with %d queued, want it waiting in the queue",
			queued.Status, queued.NumNodes(), w.Q.QueueLen())
	}

	var outcomes []string
	w.onApplied = func(e *Entry, applyErr string) { outcomes = append(outcomes, applyErr) }
	for _, tc := range []struct {
		name string
		task *core.Task
	}{{"completed", short}, {"queued", queued}} {
		status, qlen, evicts := tc.task.Status, w.Q.QueueLen(), countEvents(trace, "evict")
		if err := w.apply(&Entry{Seq: 1, Kind: KindEvict, Workload: tc.task.W.ID}); err != nil {
			t.Fatalf("%s: apply: %v", tc.name, err)
		}
		if tc.task.Status != status {
			t.Errorf("%s: status %v after evict, was %v", tc.name, tc.task.Status, status)
		}
		if got := w.Q.QueueLen(); got != qlen {
			t.Errorf("%s: queue length %d after evict, was %d", tc.name, got, qlen)
		}
		if got := countEvents(trace, "evict"); got != evicts {
			t.Errorf("%s: %d evict lifecycle events, was %d", tc.name, got, evicts)
		}
	}
	if len(outcomes) != 2 || outcomes[0] != "" || outcomes[1] != "" {
		t.Errorf("apply outcomes %q, want two successes", outcomes)
	}
	if got := countEvents(trace, "serve.apply"); got != 2 {
		t.Errorf("%d serve.apply events in the trace, want 2", got)
	}
	// The completed filler must not run again.
	w.RT.Run(120)
	if short.Status != core.StatusCompleted || short.NumNodes() != 0 {
		t.Errorf("completed filler is %v on %d nodes after the evict", short.Status, short.NumNodes())
	}
}

// countEvents counts the trace's events by name.
func countEvents(trace *obs.BufferSink, name string) int {
	n := 0
	for _, e := range trace.Events() {
		if e.Name == name {
			n++
		}
	}
	return n
}
