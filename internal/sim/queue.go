package sim

// eventHeap is the engine's pending-event store: a binary min-heap of event
// values ordered by (at, seq), the engine's determinism contract. seq is
// unique, so the order is total and any correct heap pops the same sequence.
// The sifts are written for the typed slice: container/heap's Push(any)
// would box each event and allocate on every Schedule.
type eventHeap []event

// before reports whether a fires before b.
func (a *event) before(b *event) bool {
	// Exact comparison is load-bearing: events at bit-identical times
	// must fall through to the seq tie-break for deterministic ordering.
	if a.at != b.at { //lint:allow(floatcmp)
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (h *eventHeap) push(ev event) {
	*h = append(*h, ev)
	h.up(len(*h) - 1)
}

// pop removes and returns the minimum event; the heap must not be empty.
func (h *eventHeap) pop() event {
	ev := (*h)[0]
	h.remove(0)
	return ev
}

// remove deletes the event in slot i. The vacated last slot is zeroed so
// the heap's spare capacity never pins a fired or cancelled closure.
func (h *eventHeap) remove(i int) {
	old := *h
	n := len(old) - 1
	old[i] = old[n]
	old[n] = event{}
	*h = old[:n]
	if i < n && !h.down(i) {
		h.up(i)
	}
}

// peekAt returns the minimum pending event time without removing it.
func (h eventHeap) peekAt() (float64, bool) {
	if len(h) == 0 {
		return 0, false
	}
	return h[0].at, true
}

// up moves the event in slot j toward the root until its parent fires
// before it.
func (h eventHeap) up(j int) {
	ev := h[j]
	for j > 0 {
		p := (j - 1) / 2
		if !ev.before(&h[p]) {
			break
		}
		h[j] = h[p]
		j = p
	}
	h[j] = ev
}

// down moves the event in slot i toward the leaves until it fires before
// both children, and reports whether it moved.
func (h eventHeap) down(i int) bool {
	ev := h[i]
	i0 := i
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if r := c + 1; r < len(h) && h[r].before(&h[c]) {
			c = r
		}
		if !h[c].before(&ev) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = ev
	return i > i0
}
