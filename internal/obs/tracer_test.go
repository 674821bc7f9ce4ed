package obs

import (
	"bytes"
	"testing"
)

func TestNilTracerIsSafeAndFree(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	tr.Instant("a", "b", "c", Arg{Key: "k", Val: 1})
	tr.Begin("a", "b", "c")
	tr.End("a", "b", "c")
	tr.BeginAsync("id", "a", "b", "c")
	tr.EndAsync("id", "a", "b", "c")
	tr.Counter("a", "b", "c")
	tr.InstantAt(5, "a", "b", "c")
	if tr.Len() != 0 || tr.Events() != nil || tr.Tracks() != nil {
		t.Fatal("nil tracer accumulated state")
	}
	if reg := tr.Registry(); reg != nil {
		t.Fatal("nil tracer returned a registry")
	}
	// Nil registry and counter are no-ops too.
	var reg *Registry
	c := reg.Counter("x", "")
	c.Inc()
	c.Add(3)
	if c.Value() != 0 {
		t.Fatal("nil counter accumulated")
	}
	reg.Gauge("g", "", func() float64 { return 1 })
	if reg.Len() != 0 {
		t.Fatal("nil registry accumulated")
	}
}

func TestSequenceAndClock(t *testing.T) {
	now := 0.0
	tr := New(func() float64 { return now })
	tr.Instant("manager", "test", "first")
	now = 2.5
	tr.Begin("manager", "test", "span")
	now = 4.0
	tr.End("manager", "test", "span")
	evs := tr.Events()
	if len(evs) != 3 {
		t.Fatalf("got %d events, want 3", len(evs))
	}
	for i, ev := range evs {
		if ev.Seq != uint64(i+1) {
			t.Fatalf("event %d has seq %d", i, ev.Seq)
		}
	}
	if evs[0].Time != 0 || evs[1].Time != 2.5 || evs[2].Time != 4.0 { //lint:allow(floatcmp) exact injected times
		t.Fatalf("times %v %v %v", evs[0].Time, evs[1].Time, evs[2].Time)
	}
	if got := tr.Tracks(); len(got) != 1 || got[0] != "manager" {
		t.Fatalf("tracks %v", got)
	}
}

func TestRegistryOrderAndRedefinition(t *testing.T) {
	tr := New(nil)
	reg := tr.Registry()
	base := reg.Len() // the tracer self-meters (tracer_events/bytes/dropped)
	c := reg.Counter("decisions_total", "scheduling decisions")
	reg.Gauge("queue_len", "admission queue length", func() float64 { return 7 })
	c.Inc()
	c.Inc()
	if got := reg.Counter("decisions_total", "dup"); got != c {
		t.Fatal("re-registering a counter must return the original")
	}
	if c.Value() != 2 {
		t.Fatalf("counter value %v", c.Value())
	}
	// Re-registering a gauge replaces in place without reordering.
	reg.Gauge("queue_len", "replaced", func() float64 { return 9 })
	if reg.Len() != base+2 {
		t.Fatalf("registry len %d, want %d", reg.Len(), base+2)
	}
	var buf bytes.Buffer
	if err := WritePromSnapshot(&buf, tr); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	di := bytes.Index(buf.Bytes(), []byte("decisions_total"))
	qi := bytes.Index(buf.Bytes(), []byte("queue_len"))
	if di < 0 || qi < 0 || di > qi {
		t.Fatalf("registration order not preserved in snapshot:\n%s", out)
	}
}
