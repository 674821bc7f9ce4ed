package obs

// Shard is a task-confined event buffer for deterministic tracing inside
// parallel fan-outs. The pattern mirrors sim.RNG.Substreams: derive one shard
// per task sequentially before the fan-out, hand shard i to task i (a shard
// must never be shared across tasks), and Merge the slice afterwards — the
// buffered events land in the parent stream in input order with final
// sequence numbers, so output is byte-identical for any worker count.
//
// Shard timestamps are pinned to the simulation time at derivation: a fan-out
// happens at one simulated instant, whatever the wall clock does.
type Shard struct {
	time   float64
	events []Event
}

// Shards derives n task buffers at the current sim time. For a nil tracer it
// returns n nil shards, whose methods are no-ops, so fan-out code needs no
// enabled-check of its own.
func (t *Tracer) Shards(n int) []*Shard {
	shards := make([]*Shard, n)
	if t == nil {
		return shards
	}
	tm := t.now()
	for i := range shards {
		shards[i] = &Shard{time: tm} // one per fan-out: shards go to concurrent tasks, so pooling would race
	}
	return shards
}

// Enabled reports whether the shard records events.
func (s *Shard) Enabled() bool { return s != nil }

// Instant buffers a standalone event at the shard's derivation time.
func (s *Shard) Instant(track, cat, name string, args ...Arg) {
	if s == nil {
		return
	}
	s.events = append(s.events, Event{
		Time: s.time, Phase: PhaseInstant,
		Cat: cat, Name: name, Track: track, Args: args,
	})
}

// Merge routes the shards' buffered events into the parent pipeline in input
// order: each passes through the tracer's controls, gets a final sequence
// number, and fans out to the sinks, exactly as a direct emission would.
// Call it after the fan-out has fully drained (par.ParFor returns only then).
// Nil shards and a nil tracer are tolerated.
func (t *Tracer) Merge(shards []*Shard) {
	if t == nil {
		return
	}
	for _, s := range shards {
		if s == nil {
			continue
		}
		for i := range s.events {
			ev := &s.events[i]
			t.emit(ev.Time, ev.Phase, ev.ID, ev.Track, ev.Cat, ev.Name, ev.Args)
		}
		s.events = nil
	}
}
