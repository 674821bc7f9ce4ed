package core

import "quasar/internal/cluster"

// WaitQueue is the admission-control wait queue a manager keeps: workloads
// that could not be placed on arrival, plus best-effort tasks evicted since.
// Entries are retried in arrival order by Drain.
type WaitQueue struct {
	tasks []*Task
	// spare is the buffer the previous drain emptied; the next drain's
	// survivors are written into it, so steady-state drains allocate nothing.
	spare []*Task
}

// Push appends a task to the queue. It is safe to call from inside Drain's
// try callback (an eviction triggered by a placement): the task joins the
// survivors and is retried by the next drain.
func (wq *WaitQueue) Push(t *Task) { wq.tasks = append(wq.tasks, t) }

// Len reports the number of queued tasks.
func (wq *WaitQueue) Len() int { return len(wq.tasks) }

// Tasks returns the queued tasks in retry order. The slice is the queue's
// live buffer — callers must not mutate it; it is valid until the next Push
// or Drain.
func (wq *WaitQueue) Tasks() []*Task { return wq.tasks }

// Drain retries every queued task once, in order, keeping the ones try does
// not place. try reports whether it placed the task and, for a best-effort
// task, whether it failed because no server in the cluster is eligible
// (noFit) — as opposed to a failure specific to this task.
//
// That answer depends only on cluster state, not on which best-effort task
// asked, so it is remembered against cl.Gen(): while the generation stands
// still, later best-effort entries are kept without calling try. Any
// placement, eviction, resize or fault moves the generation and re-arms the
// scan. The memo lives only for this call: between drains the manager's own
// view (resident interference estimates) changes without touching the
// cluster.
func (wq *WaitQueue) Drain(cl *cluster.Cluster, try func(t *Task) (placed, noFit bool)) {
	pending := wq.tasks
	wq.tasks = wq.spare[:0]
	memo, memoGen := false, uint64(0)
	for _, t := range pending {
		if t.Status == StatusCompleted {
			continue
		}
		if t.W.BestEffort && memo && cl.Gen() == memoGen {
			//lint:allow(hotalloc) survivors go into the buffer the previous drain emptied: it grows to the queue's peak once, then is reused
			wq.tasks = append(wq.tasks, t)
			continue
		}
		placed, noFit := try(t)
		if noFit {
			memo, memoGen = true, cl.Gen()
		}
		if !placed {
			//lint:allow(hotalloc) same reused survivor buffer as above
			wq.tasks = append(wq.tasks, t)
		}
	}
	wq.spare = pending[:0]
}
