package core

import (
	"fmt"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"quasar/internal/cluster"
	"quasar/internal/workload"
)

// queueFixture builds a small cluster, a queue, and n tasks of each kind that
// never went through a manager: best-effort fillers and targeted jobs.
func queueFixture(t *testing.T, n int) (cl *cluster.Cluster, fillers, targeted []*Task) {
	t.Helper()
	platforms := cluster.LocalPlatforms()
	cl, err := cluster.NewUniform(platforms, 10)
	if err != nil {
		t.Fatal(err)
	}
	rt := NewRuntime(cl, Options{Seed: 1})
	u := workload.NewUniverse(platforms, 2, 3)
	for i := 0; i < n; i++ {
		fillers = append(fillers, rt.Submit(u.New(workload.Spec{Type: workload.SingleNode, Family: -1, BestEffort: true}), 1e9, nil))
		targeted = append(targeted, rt.Submit(u.New(workload.Spec{Type: workload.SingleNode, Family: -1}), 1e9, nil))
	}
	return cl, fillers, targeted
}

// TestWaitQueueMemoisesOnlyNoFit: after one best-effort attempt reports "no
// eligible server", later best-effort entries are kept without an attempt —
// but targeted entries are always tried, a task-specific failure memoises
// nothing, and completed entries are dropped.
func TestWaitQueueMemoisesOnlyNoFit(t *testing.T) {
	cl, be, tg := queueFixture(t, 4)
	be[3].Status = StatusCompleted

	var wq WaitQueue
	order := []*Task{be[0], tg[0], be[1], tg[1], be[2], be[3]}
	for _, task := range order {
		wq.Push(task)
	}
	var tried []*Task
	wq.Drain(cl, func(task *Task) (placed, noFit bool) {
		tried = append(tried, task)
		// be[0] fails for a reason of its own; the first real scan is be[1]'s.
		return false, task.W.BestEffort && task != be[0]
	})
	if want := []*Task{be[0], tg[0], be[1], tg[1]}; !slices.Equal(tried, want) {
		t.Errorf("tried %d entries, want be0, tg0, be1, tg1 (be2 skipped by the memo)", len(tried))
	}
	if want := order[:5]; !slices.Equal(wq.Tasks(), want) {
		t.Errorf("queue holds %d entries after the drain, want the 5 unplaced ones in order", wq.Len())
	}

	// The memo dies with the drain: the next one scans again.
	tried = tried[:0]
	wq.Drain(cl, func(task *Task) (placed, noFit bool) {
		tried = append(tried, task)
		return false, task.W.BestEffort
	})
	if want := []*Task{be[0], tg[0], tg[1]}; !slices.Equal(tried, want) {
		t.Errorf("second drain tried %d entries, want be0 (fresh scan), tg0, tg1", len(tried))
	}
}

// TestWaitQueueGenerationRearmsScan: any cluster mutation after the no-fit
// answer invalidates it, so the next best-effort entry is attempted again.
func TestWaitQueueGenerationRearmsScan(t *testing.T) {
	cl, be, tg := queueFixture(t, 3)
	var wq WaitQueue
	for _, task := range []*Task{be[0], be[1], tg[0], be[2]} {
		wq.Push(task)
	}
	var tried []*Task
	wq.Drain(cl, func(task *Task) (placed, noFit bool) {
		tried = append(tried, task)
		switch task {
		case tg[0]:
			// A targeted placement (or its evictions) changes the cluster.
			if _, err := cl.Servers[0].Place(task.W.ID, cluster.Alloc{Cores: 1, MemoryGB: 1}, cluster.ResVec{}, cluster.Guaranteed); err != nil {
				t.Fatal(err)
			}
			return true, false
		case be[2]:
			return true, false
		}
		return false, true
	})
	if want := []*Task{be[0], tg[0], be[2]}; !slices.Equal(tried, want) {
		t.Errorf("tried %d entries, want be0, tg0, be2 (be1 skipped, be2 re-armed by the placement)", len(tried))
	}
	if want := []*Task{be[0], be[1]}; !slices.Equal(wq.Tasks(), want) {
		t.Errorf("queue holds %d entries, want be0 and be1", wq.Len())
	}
}

// TestWaitQueuePushDuringDrainIsKept: a task pushed from inside the callback
// (an eviction caused by a placement) joins the survivors in processing
// order, and steady-state drains reuse their two buffers.
func TestWaitQueuePushDuringDrainIsKept(t *testing.T) {
	cl, be, tg := queueFixture(t, 2)
	var wq WaitQueue
	for _, task := range []*Task{be[0], tg[0], tg[1]} {
		wq.Push(task)
	}
	wq.Drain(cl, func(task *Task) (placed, noFit bool) {
		if task == tg[0] {
			wq.Push(be[1]) // evicted to make room for tg0
			return true, false
		}
		return false, task.W.BestEffort
	})
	if want := []*Task{be[0], be[1], tg[1]}; !slices.Equal(wq.Tasks(), want) {
		t.Fatalf("queue holds %d entries, want be0, the evicted be1, tg1", wq.Len())
	}
	nothingFits := func(task *Task) (placed, noFit bool) { return false, task.W.BestEffort }
	wq.Drain(cl, nothingFits) // sizes the second buffer
	if allocs := testing.AllocsPerRun(100, func() { wq.Drain(cl, nothingFits) }); allocs != 0 {
		t.Errorf("steady-state drain allocates %.0f times, want 0", allocs)
	}
}

// TestDrainKeepsNoStaleEntries: once a drain has placed or dropped every
// entry, neither the queue nor the buffer it keeps for the next drain holds
// a reference to those tasks, so completed ones are collectable.
func TestDrainKeepsNoStaleEntries(t *testing.T) {
	var wq WaitQueue
	var collected atomic.Int64
	for i := 0; i < 8; i++ {
		task := &Task{W: &workload.Instance{ID: fmt.Sprintf("single-node-%04d", i), Type: workload.SingleNode}}
		if i%2 == 1 {
			task.Status = StatusCompleted
		}
		runtime.SetFinalizer(task, func(*Task) { collected.Add(1) })
		wq.Push(task)
	}
	wq.Drain(nil, func(*Task) (placed, noFit bool) { return true, false })
	for i := 0; i < 20 && collected.Load() < 8; i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if n := collected.Load(); n != 8 || wq.Len() != 0 {
		t.Fatalf("%d of 8 drained tasks collected with %d still queued", n, wq.Len())
	}
}
