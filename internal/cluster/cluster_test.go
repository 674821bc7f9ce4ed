package cluster

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestResourceNames(t *testing.T) {
	for r := Resource(0); r < NumResources; r++ {
		name := r.String()
		back, err := ParseResource(name)
		if err != nil {
			t.Fatalf("ParseResource(%q): %v", name, err)
		}
		if back != r {
			t.Fatalf("round trip %v -> %q -> %v", r, name, back)
		}
	}
	if _, err := ParseResource("bogus"); err == nil {
		t.Fatal("ParseResource accepted bogus name")
	}
}

func TestResVecOps(t *testing.T) {
	var a, b ResVec
	a[ResCPU], a[ResLLC] = 0.5, 0.25
	b[ResCPU], b[ResNetBW] = 0.25, 1.0
	sum := a.Add(b)
	if sum[ResCPU] != 0.75 || sum[ResLLC] != 0.25 || sum[ResNetBW] != 1.0 {
		t.Fatalf("Add wrong: %v", sum)
	}
	diff := sum.Sub(b)
	if math.Abs(diff[ResCPU]-0.5) > 1e-12 || diff[ResNetBW] != 0 {
		t.Fatalf("Sub wrong: %v", diff)
	}
	// Sub clamps at zero.
	under := a.Sub(b)
	if under[ResNetBW] != 0 {
		t.Fatalf("Sub did not clamp: %v", under)
	}
	if got := a.Scale(2)[ResLLC]; got != 0.5 {
		t.Fatalf("Scale wrong: %v", got)
	}
	if a.Max() != 0.5 {
		t.Fatalf("Max wrong: %v", a.Max())
	}
}

func TestLocalPlatformsMatchTable1(t *testing.T) {
	ps := LocalPlatforms()
	if len(ps) != 10 {
		t.Fatalf("got %d platforms, want 10", len(ps))
	}
	wantCores := []int{2, 4, 8, 8, 8, 8, 12, 12, 16, 24}
	wantMem := []float64{4, 8, 12, 16, 20, 24, 16, 24, 48, 48}
	for i, p := range ps {
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
		if p.Cores != wantCores[i] || p.MemoryGB != wantMem[i] {
			t.Fatalf("platform %s: %d cores %.0f GB, want %d/%.0f",
				p.Name, p.Cores, p.MemoryGB, wantCores[i], wantMem[i])
		}
	}
	// Per-core performance should be nondecreasing with platform class.
	for i := 1; i < len(ps); i++ {
		if ps[i].CorePerf < ps[0].CorePerf {
			t.Fatalf("platform %s slower per-core than A", ps[i].Name)
		}
	}
}

func TestEC2Platforms(t *testing.T) {
	ps := EC2Platforms()
	if len(ps) != 14 {
		t.Fatalf("got %d EC2 platforms, want 14", len(ps))
	}
	for _, p := range ps {
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestHighestEnd(t *testing.T) {
	ps := LocalPlatforms()
	if got := HighestEnd(ps); ps[got].Name != "J" {
		t.Fatalf("highest-end local platform = %s, want J", ps[got].Name)
	}
	ec2 := EC2Platforms()
	best := ec2[HighestEnd(ec2)]
	if best.Cores != 32 || best.MemoryGB != 244 {
		t.Fatalf("highest-end EC2 = %+v", best)
	}
}

func TestPlaceRemoveAccounting(t *testing.T) {
	p := LocalPlatforms()[9] // J: 24 cores, 48 GB
	s := NewServer(0, &p)
	var caused ResVec
	caused[ResLLC] = 0.3

	pl, err := s.Place("w1", Alloc{Cores: 8, MemoryGB: 16}, caused, false)
	if err != nil {
		t.Fatal(err)
	}
	if s.FreeCores() != 16 || math.Abs(s.FreeMemGB()-32) > 1e-9 {
		t.Fatalf("free after place: %d cores %.1f GB", s.FreeCores(), s.FreeMemGB())
	}
	if pl.Server != s {
		t.Fatal("placement back-pointer wrong")
	}
	if got := s.PressureOn("other")[ResLLC]; got != 0.3 {
		t.Fatalf("pressure on neighbour = %v, want 0.3", got)
	}
	if got := s.PressureOn("w1")[ResLLC]; got != 0 {
		t.Fatalf("pressure on self = %v, want 0 (self excluded)", got)
	}
	if err := s.Remove("w1"); err != nil {
		t.Fatal(err)
	}
	if s.UsedCores() != 0 || s.UsedMemGB() != 0 {
		t.Fatal("remove did not release resources")
	}
	if got := s.PressureOn("")[ResLLC]; got != 0 {
		t.Fatalf("pressure after remove = %v", got)
	}
	if err := s.Remove("w1"); err == nil {
		t.Fatal("double remove succeeded")
	}
}

func TestPlaceRejections(t *testing.T) {
	p := LocalPlatforms()[0] // A: 2 cores 4 GB
	s := NewServer(0, &p)
	if _, err := s.Place("w", Alloc{Cores: 3, MemoryGB: 1}, ResVec{}, false); err == nil {
		t.Fatal("over-core placement succeeded")
	}
	if _, err := s.Place("w", Alloc{Cores: 1, MemoryGB: 8}, ResVec{}, false); err == nil {
		t.Fatal("over-memory placement succeeded")
	}
	if _, err := s.Place("w", Alloc{}, ResVec{}, false); err == nil {
		t.Fatal("zero alloc succeeded")
	}
	if _, err := s.Place("w", Alloc{Cores: 1, MemoryGB: 1}, ResVec{}, false); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Place("w", Alloc{Cores: 1, MemoryGB: 1}, ResVec{}, false); err == nil {
		t.Fatal("duplicate placement succeeded")
	}
}

func TestResize(t *testing.T) {
	p := LocalPlatforms()[9]
	s := NewServer(0, &p)
	var c1, c2 ResVec
	c1[ResCPU] = 0.2
	c2[ResCPU] = 0.5
	if _, err := s.Place("w", Alloc{Cores: 4, MemoryGB: 8}, c1, false); err != nil {
		t.Fatal(err)
	}
	if err := s.Resize("w", Alloc{Cores: 12, MemoryGB: 24}, c2); err != nil {
		t.Fatal(err)
	}
	if s.UsedCores() != 12 || s.UsedMemGB() != 24 {
		t.Fatalf("resize accounting wrong: %d cores %.0f GB", s.UsedCores(), s.UsedMemGB())
	}
	if got := s.PressureOn("")[ResCPU]; math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("pressure after resize = %v, want 0.5", got)
	}
	if err := s.Resize("w", Alloc{Cores: 25, MemoryGB: 24}, c2); err == nil {
		t.Fatal("resize beyond capacity succeeded")
	}
	if err := s.Resize("nope", Alloc{Cores: 1, MemoryGB: 1}, c1); err == nil {
		t.Fatal("resize of absent workload succeeded")
	}
}

func TestProbePressure(t *testing.T) {
	p := LocalPlatforms()[3]
	s := NewServer(0, &p)
	var probe ResVec
	probe[ResL2] = 0.8
	s.SetProbe(probe)
	if got := s.PressureOn("any")[ResL2]; got != 0.8 {
		t.Fatalf("probe pressure = %v", got)
	}
	s.SetProbe(ResVec{})
	if got := s.PressureOn("any")[ResL2]; got != 0 {
		t.Fatalf("probe not cleared: %v", got)
	}
}

func TestUtilizationGauges(t *testing.T) {
	p := LocalPlatforms()[2] // C: 8 cores 12 GB
	s := NewServer(0, &p)
	pl, err := s.Place("w", Alloc{Cores: 4, MemoryGB: 6}, ResVec{}, false)
	if err != nil {
		t.Fatal(err)
	}
	pl.ActiveCores = 2
	pl.ActiveMemGB = 3
	pl.ActiveDisk = 0.25
	if got := s.CPUUtilization(); math.Abs(got-0.25) > 1e-12 {
		t.Fatalf("cpu util = %v, want 0.25", got)
	}
	if got := s.MemUtilization(); math.Abs(got-0.25) > 1e-12 {
		t.Fatalf("mem util = %v, want 0.25", got)
	}
	if got := s.DiskUtilization(); got != 0.25 {
		t.Fatalf("disk util = %v", got)
	}
	// Gauges clamp at 1.
	pl.ActiveCores = 100
	if s.CPUUtilization() != 1 {
		t.Fatal("cpu util not clamped")
	}
}

func TestNewCluster(t *testing.T) {
	ps := LocalPlatforms()
	counts := []int{4, 4, 4, 4, 4, 4, 4, 4, 4, 4}
	c, err := New(ps, counts)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Servers) != 40 {
		t.Fatalf("%d servers, want 40", len(c.Servers))
	}
	if got := len(c.ByPlatform("J")); got != 4 {
		t.Fatalf("%d J servers, want 4", got)
	}
	if c.PlatformIndex("E") != 4 {
		t.Fatalf("PlatformIndex(E) = %d", c.PlatformIndex("E"))
	}
	if c.PlatformIndex("nope") != -1 {
		t.Fatal("PlatformIndex of unknown platform != -1")
	}
	for _, s := range c.Servers {
		if i := s.PlatformIdx(); i != c.PlatformIndex(s.Platform.Name) || &c.Platforms[i] != s.Platform {
			t.Fatalf("server %d: PlatformIdx %d, platform %s", s.ID, i, s.Platform.Name)
		}
	}
	if i := NewServer(0, &ps[0]).PlatformIdx(); i != -1 {
		t.Fatalf("standalone server PlatformIdx = %d, want -1", i)
	}
	wantCores := 4 * (2 + 4 + 8 + 8 + 8 + 8 + 12 + 12 + 16 + 24)
	if c.TotalCores() != wantCores {
		t.Fatalf("total cores %d, want %d", c.TotalCores(), wantCores)
	}
	if _, err := New(ps, []int{1}); err == nil {
		t.Fatal("mismatched counts accepted")
	}
}

// TestNewRejectsDuplicatePlatformNames: a server's PlatformIdx and the name
// lookup PlatformIndex agree only when names are unique, so New refuses a
// repeated name even on a platform with no servers.
func TestNewRejectsDuplicatePlatformNames(t *testing.T) {
	ps := LocalPlatforms()
	dup := append(ps[:3:3], ps[1])
	dup[3].Cores *= 2
	if _, err := New(dup, []int{1, 1, 1, 0}); err == nil || !strings.Contains(err.Error(), "duplicate platform name B") {
		t.Fatalf("duplicate platform accepted or wrong error: %v", err)
	}
}

func TestNewUniform(t *testing.T) {
	c, err := NewUniform(EC2Platforms(), 200)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Servers) != 200 {
		t.Fatalf("%d servers, want 200", len(c.Servers))
	}
	// Every platform gets 200/14 = 14 or 15 servers.
	for _, p := range EC2Platforms() {
		n := len(c.ByPlatform(p.Name))
		if n != 14 && n != 15 {
			t.Fatalf("platform %s has %d servers", p.Name, n)
		}
	}
}

func TestPlacementsDeterministicOrder(t *testing.T) {
	p := LocalPlatforms()[9]
	s := NewServer(0, &p)
	for _, id := range []string{"zeta", "alpha", "mid"} {
		if _, err := s.Place(id, Alloc{Cores: 1, MemoryGB: 1}, ResVec{}, false); err != nil {
			t.Fatal(err)
		}
	}
	pls := s.Placements()
	if pls[0].WorkloadID != "alpha" || pls[1].WorkloadID != "mid" || pls[2].WorkloadID != "zeta" {
		t.Fatalf("placements not sorted: %v", []string{pls[0].WorkloadID, pls[1].WorkloadID, pls[2].WorkloadID})
	}
}

// Property: a sequence of valid places and removes never lets usage go
// negative or beyond capacity, and pressure stays non-negative.
func TestAccountingInvariant(t *testing.T) {
	f := func(ops []uint8) bool {
		p := LocalPlatforms()[9]
		s := NewServer(0, &p)
		n := 0
		for i, op := range ops {
			id := string(rune('a' + i%26))
			if op%2 == 0 {
				var cv ResVec
				cv[op%uint8(NumResources)] = float64(op%5) / 10
				if _, err := s.Place(id, Alloc{Cores: int(op%4) + 1, MemoryGB: float64(op%8) + 1}, cv, false); err == nil {
					n++
				}
			} else {
				if err := s.Remove(id); err == nil {
					n--
				}
			}
			if s.UsedCores() < 0 || s.UsedCores() > p.Cores {
				return false
			}
			if s.UsedMemGB() < -1e-9 || s.UsedMemGB() > p.MemoryGB+1e-9 {
				return false
			}
			for _, v := range s.PressureOn("") {
				if v < 0 {
					return false
				}
			}
		}
		return s.NumPlacements() == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
