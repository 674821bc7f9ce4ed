package sim

import "container/heap"

// eventHeap is the engine's pending-event store: a binary min-heap ordered by
// (at, seq), the engine's determinism contract. ev.index is owned by the heap
// while the event is inside it and is < 0 once popped or removed.
type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }

func (h eventHeap) Less(i, j int) bool {
	// Exact comparison is load-bearing: events at bit-identical times
	// must fall through to the seq tie-break for deterministic ordering.
	if h[i].at != h[j].at { //lint:allow(floatcmp)
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}

func (h *eventHeap) Push(x any) {
	ev := x.(*event)
	ev.index = len(*h)
	*h = append(*h, ev)
}

func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.index = -1
	*h = old[:n-1]
	return ev
}

func (h *eventHeap) push(ev *event) { heap.Push(h, ev) }

// pop removes and returns the minimum event by (at, seq), or nil when the
// heap is empty.
func (h *eventHeap) pop() *event {
	if len(*h) == 0 {
		return nil
	}
	return heap.Pop(h).(*event)
}

// peekAt returns the minimum pending event time without removing it.
func (h eventHeap) peekAt() (float64, bool) {
	if len(h) == 0 {
		return 0, false
	}
	return h[0].at, true
}

// remove deletes a specific pending event. It reports false — and leaves the
// heap untouched — when the event is not currently queued (already fired,
// already removed, or recycled), so a stale handle can never corrupt it.
func (h *eventHeap) remove(ev *event) bool {
	if ev.index < 0 || ev.index >= len(*h) || (*h)[ev.index] != ev {
		return false
	}
	heap.Remove(h, ev.index)
	return true
}
