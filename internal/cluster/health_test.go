package cluster

import "testing"

func healthFixture(t *testing.T) *Cluster {
	t.Helper()
	cl, err := New(LocalPlatforms(), []int{1, 1, 1, 1, 1, 1, 1, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

func TestServerHealthStates(t *testing.T) {
	cl := healthFixture(t)
	s := cl.Servers[0]
	if !s.Up() || !s.Reachable() || !s.Schedulable() || s.Det() != DetOK {
		t.Fatal("fresh server is not healthy")
	}

	// Crash: down, unreachable, unschedulable; utilization reads as idle.
	if _, err := s.Place("w", Alloc{Cores: 1, MemoryGB: 1}, ResVec{}, Guaranteed); err != nil {
		t.Fatal(err)
	}
	s.SetDown()
	if s.Up() || s.Reachable() || s.Schedulable() {
		t.Fatal("down server still reachable/schedulable")
	}
	if s.Fits(Alloc{Cores: 1, MemoryGB: 1}) {
		t.Fatal("down server accepts placements")
	}
	if _, err := s.Place("w2", Alloc{Cores: 1, MemoryGB: 1}, ResVec{}, Guaranteed); err == nil {
		t.Fatal("Place on a down server succeeded")
	}
	if err := s.Resize("w", Alloc{Cores: 2, MemoryGB: 1}, ResVec{}); err == nil {
		t.Fatal("Resize on a down server succeeded")
	}
	if s.CPUUtilization() != 0 || s.MemUtilization() != 0 {
		t.Fatal("down server reports utilization")
	}
	// Placements survive the crash until something fences them.
	if s.NumPlacements() != 1 {
		t.Fatalf("crash dropped placements: %d", s.NumPlacements())
	}

	// Restart rejoins clean and healthy.
	s.SetUp()
	if !s.Up() || !s.Reachable() {
		t.Fatal("SetUp did not restore the server")
	}

	// Partition: up but unreachable.
	s.SetPartitioned(true)
	if !s.Up() || s.Reachable() || s.Schedulable() {
		t.Fatal("partitioned server should be up but unreachable")
	}
	s.SetPartitioned(false)
	if !s.Reachable() {
		t.Fatal("heal did not restore reachability")
	}

	// Detector belief alone blocks scheduling without touching reachability.
	s.SetDet(DetSuspect)
	if !s.Reachable() || s.Schedulable() {
		t.Fatal("suspect server should be reachable but unschedulable")
	}
	s.SetDet(DetOK)
	if !s.Schedulable() {
		t.Fatal("cleared server should be schedulable")
	}
}

func TestSetDownClearsFaultOverlays(t *testing.T) {
	cl := healthFixture(t)
	s := cl.Servers[1]
	var v ResVec
	v[ResCPU] = 0.6
	s.SetDegrade(v)
	s.SetPartitioned(true)
	s.SetDown()
	if s.Degraded() || s.Partitioned() {
		t.Fatal("crash should wipe slowdown and partition state")
	}
}

func TestDegradePressureFoldsIn(t *testing.T) {
	cl := healthFixture(t)
	s := cl.Servers[2]
	base := s.PressureOn("w")
	var v ResVec
	v[ResCPU], v[ResLLC] = 0.5, 0.5
	s.SetDegrade(v)
	if !s.Degraded() {
		t.Fatal("Degraded() false after SetDegrade")
	}
	p := s.PressureOn("w")
	if p[ResCPU] != base[ResCPU]+0.5 || p[ResLLC] != base[ResLLC]+0.5 {
		t.Fatalf("degrade not folded into pressure: base %v now %v", base, p)
	}
	s.SetDegrade(ResVec{})
	if s.Degraded() {
		t.Fatal("Degraded() true after clearing")
	}
}

func TestLiveCapacityAccounting(t *testing.T) {
	cl := healthFixture(t)
	if cl.NumLive() != len(cl.Servers) {
		t.Fatalf("healthy cluster: live %d/%d", cl.NumLive(), len(cl.Servers))
	}
	if cl.LiveFreeCores() != cl.FreeCores() {
		t.Fatalf("live free %d != free %d on healthy cluster", cl.LiveFreeCores(), cl.FreeCores())
	}

	dead := cl.Servers[0]
	suspect := cl.Servers[1]
	dead.SetDown()
	suspect.SetDet(DetSuspect)
	wantLive := len(cl.Servers) - 2
	if cl.NumLive() != wantLive {
		t.Fatalf("NumLive = %d, want %d (down + suspect excluded)", cl.NumLive(), wantLive)
	}
	wantFree := cl.FreeCores() - dead.FreeCores() - suspect.FreeCores()
	if cl.LiveFreeCores() != wantFree {
		t.Fatalf("LiveFreeCores = %d, want %d", cl.LiveFreeCores(), wantFree)
	}
}
