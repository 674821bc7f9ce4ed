package cluster

import "testing"

// TestGenAdvancesOnEveryMutation pins the contract the admission-queue
// drain's no-fit memo rests on: anything that can change which servers a
// placement scan would accept — capacity, residents, pressure, isolation,
// fault or detector state — advances Cluster.Gen. The steps run in order on
// one server, so each sees the state the previous ones left.
func TestGenAdvancesOnEveryMutation(t *testing.T) {
	c, err := New(LocalPlatforms(), []int{1, 1, 1, 1, 1, 1, 1, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if c.Gen() != 0 {
		t.Fatalf("fresh cluster at generation %d, want 0 (building the index is not a mutation)", c.Gen())
	}
	s := c.Servers[9]
	var press ResVec
	press[ResLLC] = 0.3
	mustOK := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	steps := []struct {
		name string
		do   func()
		bump bool
	}{
		{"Place", func() { _, err := s.Place("a", Alloc{Cores: 2, MemoryGB: 2}, press, Guaranteed); mustOK(err) }, true},
		{"Place best-effort", func() { _, err := s.Place("b", Alloc{Cores: 1, MemoryGB: 1}, ResVec{}, BestEffort); mustOK(err) }, true},
		{"Resize", func() { mustOK(s.Resize("a", Alloc{Cores: 4, MemoryGB: 3}, press)) }, true},
		{"Remove", func() { mustOK(s.Remove("b")) }, true},
		{"SetProbe", func() { s.SetProbe(press) }, true},
		{"SetProbe same value", func() { s.SetProbe(press) }, false},
		{"SetIsolation", func() { s.SetIsolation(press) }, true},
		{"SetDegrade", func() { s.SetDegrade(press) }, true},
		{"SetDegrade same value", func() { s.SetDegrade(press) }, false},
		{"SetDet suspect", func() { s.SetDet(DetSuspect) }, true},
		{"SetDet same value", func() { s.SetDet(DetSuspect) }, false},
		{"SetDet ok", func() { s.SetDet(DetOK) }, true},
		{"SetPartitioned", func() { s.SetPartitioned(true) }, true},
		{"SetPartitioned same value", func() { s.SetPartitioned(true) }, false},
		{"SetPartitioned heal", func() { s.SetPartitioned(false) }, true},
		{"SetDown", func() { s.SetDown() }, true},
		{"SetUp", func() { s.SetUp() }, true},
		// Rejected mutations leave the server as it was.
		{"Place duplicate", func() { _, _ = s.Place("a", Alloc{Cores: 1, MemoryGB: 1}, ResVec{}, Guaranteed) }, false},
		{"Remove absent", func() { _ = s.Remove("nope") }, false},
		{"Resize past capacity", func() { _ = s.Resize("a", Alloc{Cores: 999, MemoryGB: 1}, press) }, false},
	}
	for _, st := range steps {
		before, stamp := c.Gen(), s.Stamp()
		st.do()
		switch after := c.Gen(); {
		case st.bump && after <= before:
			t.Errorf("%s: generation stayed at %d", st.name, before)
		case st.bump && s.Stamp() != after:
			t.Errorf("%s: server stamped %d, generation is %d", st.name, s.Stamp(), after)
		case !st.bump && after != before:
			t.Errorf("%s: generation moved %d -> %d without a state change", st.name, before, after)
		case !st.bump && s.Stamp() != stamp:
			t.Errorf("%s: stamp moved %d -> %d without a state change", st.name, stamp, s.Stamp())
		}
	}

	// A mutation on any server moves the one cluster-wide counter, and only
	// that server's stamp.
	before, stamp := c.Gen(), s.Stamp()
	if _, err := c.Servers[0].Place("c", Alloc{Cores: 1, MemoryGB: 1}, ResVec{}, BestEffort); err != nil {
		t.Fatal(err)
	}
	if c.Gen() == before {
		t.Error("a placement on another server did not advance the generation")
	}
	if c.Servers[0].Stamp() != c.Gen() || s.Stamp() != stamp {
		t.Errorf("stamps after a placement on server 0: server 0 %d (gen %d), server 9 %d -> %d",
			c.Servers[0].Stamp(), c.Gen(), stamp, s.Stamp())
	}

	// A standalone server has no generation to take, but its stamp still
	// advances on every mutation.
	p := LocalPlatforms()[0]
	solo := NewServer(0, &p)
	prev := solo.Stamp()
	for _, do := range []func(){
		func() { _, err := solo.Place("a", Alloc{Cores: 1, MemoryGB: 1}, press, Guaranteed); mustOK(err) },
		func() { solo.SetProbe(press) },
		func() { solo.SetDown() },
	} {
		do()
		if solo.Stamp() <= prev {
			t.Errorf("standalone stamp stayed at %d after a mutation", prev)
		}
		prev = solo.Stamp()
	}
}
