package cluster

import (
	"fmt"
	"strconv"
	"testing"

	"quasar/internal/sim"
)

// TestIndexInvariantsRandomized drives a cluster through a long randomized
// mutation sequence — place, remove, resize, crash/restart, partition,
// probe/degrade/isolation churn, detector flaps — and revalidates the whole
// free-resource index after every single mutation: bucket membership and
// band must equal a from-scratch recompute of each server's classification,
// positions must be consistent, no server may appear twice, and the cached
// free-after-eviction capacity must be bit-identical to the oracle
// expression.
func TestIndexInvariantsRandomized(t *testing.T) {
	ops := 10000
	streams := 3
	if testing.Short() {
		ops, streams = 1500, 2
	}
	root := sim.NewRNG(20260808)
	for si := 0; si < streams; si++ {
		rng := root.Stream("cluster-index:" + strconv.Itoa(si))
		t.Run(fmt.Sprintf("substream-%d", si), func(t *testing.T) {
			c, err := New(LocalPlatforms(), []int{3, 3, 3, 3, 3, 3, 3, 3, 3, 3})
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Idx().Validate(); err != nil {
				t.Fatalf("fresh cluster: %v", err)
			}
			nextWL := 0
			placed := []string{} // workload -> exists somewhere
			where := map[string]*Server{}
			vec := func() ResVec {
				var v ResVec
				for r := range v {
					if rng.Bool(0.4) {
						v[r] = rng.Uniform(0, 0.8)
					}
				}
				return v
			}
			for op := 0; op < ops; op++ {
				srv := c.Servers[rng.Intn(len(c.Servers))]
				switch k := rng.Intn(100); {
				case k < 35: // place a new workload (sometimes best-effort)
					id := fmt.Sprintf("wl-%d", nextWL)
					alloc := Alloc{
						Cores:    1 + rng.Intn(srv.Platform.Cores),
						MemoryGB: rng.Uniform(0.5, srv.Platform.MemoryGB),
					}
					tier := Guaranteed
					if rng.Bool(0.4) {
						tier = BestEffort
					}
					if _, err := srv.Place(id, alloc, vec(), tier); err == nil {
						nextWL++
						placed = append(placed, id)
						where[id] = srv
					}
				case k < 55: // remove a random placed workload
					if len(placed) == 0 {
						continue
					}
					i := rng.Intn(len(placed))
					id := placed[i]
					if err := where[id].Remove(id); err != nil {
						t.Fatalf("op %d: remove %s: %v", op, id, err)
					}
					placed[i] = placed[len(placed)-1]
					placed = placed[:len(placed)-1]
					delete(where, id)
				case k < 65: // resize a random placed workload
					if len(placed) == 0 {
						continue
					}
					id := placed[rng.Intn(len(placed))]
					s := where[id]
					alloc := Alloc{
						Cores:    1 + rng.Intn(s.Platform.Cores),
						MemoryGB: rng.Uniform(0.5, s.Platform.MemoryGB),
					}
					_ = s.Resize(id, alloc, vec()) // may fail for capacity; state must stay valid either way
				case k < 72: // crash / restart
					if srv.Up() {
						srv.SetDown()
						// The manager's belief catches up: residents stay in
						// the books (stale placements), mirroring production.
					} else {
						srv.SetUp()
					}
				case k < 79: // partition flap
					srv.SetPartitioned(!srv.Partitioned())
				case k < 86: // detector flap
					srv.SetDet(DetectorState(rng.Intn(3)))
				case k < 91: // probe churn
					if rng.Bool(0.5) {
						srv.SetProbe(vec())
					} else {
						srv.SetProbe(ResVec{})
					}
				case k < 96: // degradation churn
					if rng.Bool(0.5) {
						srv.SetDegrade(vec())
					} else {
						srv.SetDegrade(ResVec{})
					}
				default: // isolation churn
					if rng.Bool(0.5) {
						srv.SetIsolation(vec())
					} else {
						srv.SetIsolation(ResVec{})
					}
				}
				if err := c.Idx().Validate(); err != nil {
					t.Fatalf("substream %d, op %d: %v", si, op, err)
				}
				if err := checkCandidates(c, rng); err != nil {
					t.Fatalf("substream %d, op %d: %v", si, op, err)
				}
			}
		})
	}
}

// checkCandidates holds the index's candidate walk to a plain scan of
// c.Servers: AppendCandidates, as a set, is every schedulable server with at
// least a core and some memory free after eviction, and MostFree, under nil
// and under a random accept predicate, is the scan's most-free pick (ties
// to the lowest ID, which the scan gets by walking in ID order).
func checkCandidates(c *Cluster, rng *sim.RNG) error {
	got := map[int]bool{}
	for _, s := range c.AppendCandidates(nil) {
		if got[s.ID] {
			return fmt.Errorf("AppendCandidates lists server %d twice", s.ID)
		}
		got[s.ID] = true
	}
	for _, s := range c.Servers {
		cores, mem, _ := recomputeFree(s)
		if want := s.Schedulable() && cores >= 1 && mem > 0; got[s.ID] != want {
			return fmt.Errorf("AppendCandidates has server %d: %v, scan says %v", s.ID, got[s.ID], want)
		}
	}
	rejected := make([]bool, len(c.Servers))
	for i := range rejected {
		rejected[i] = rng.Bool(0.3)
	}
	accept := func(s *Server) bool { return !rejected[s.ID] }
	for _, pred := range []struct {
		name string
		ok   func(*Server) bool
	}{{"nil", nil}, {"accept", accept}} {
		ok := pred.ok
		var want *Server
		for _, s := range c.Servers {
			if s.Schedulable() && s.FreeCores() >= 1 && s.FreeMemGB() >= 1 && (ok == nil || ok(s)) &&
				(want == nil || s.FreeCores() > want.FreeCores()) {
				want = s
			}
		}
		if got := c.MostFree(ok); got != want {
			return fmt.Errorf("MostFree(%s) = server %d, scan says %d", pred.name, serverID(got), serverID(want))
		}
	}
	return nil
}

func serverID(s *Server) int {
	if s == nil {
		return -1
	}
	return s.ID
}

// TestMostFreeTieGoesToLowestID puts three tied servers into the index out
// of ID order — swap-remove moves the last pristine server into the slot a
// placement vacates — with the lowest ID in the middle, so neither the
// first nor the last tied server the walk meets is the right answer.
func TestMostFreeTieGoesToLowestID(t *testing.T) {
	c, err := New(LocalPlatforms()[:1], []int{4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Servers[0].Place("a", Alloc{Cores: 1, MemoryGB: 1}, ResVec{}, Guaranteed); err != nil {
		t.Fatal(err)
	}
	var order []int
	for _, s := range c.AppendCandidates(nil) {
		order = append(order, s.ID)
	}
	if fmt.Sprint(order) != "[3 1 2 0]" {
		t.Fatalf("candidate order %v, want [3 1 2 0]: the tie below is not out of ID order", order)
	}
	if got := c.MostFree(nil); got != c.Servers[1] {
		t.Fatalf("MostFree(nil) = server %d, want 1 (lowest ID among 1, 2, 3)", serverID(got))
	}
	notOne := func(s *Server) bool { return s.ID != 1 }
	if got := c.MostFree(notOne); got != c.Servers[2] {
		t.Fatalf("MostFree(not 1) = server %d, want 2", serverID(got))
	}
}

// TestIndexPristineLifecycle checks the pristine fast-path classification
// directly: a fresh server is pristine, any placement or injected state
// demotes it, and returning to exactly-empty restores it.
func TestIndexPristineLifecycle(t *testing.T) {
	c, err := New(LocalPlatforms()[:1], []int{2})
	if err != nil {
		t.Fatal(err)
	}
	ix := c.Idx()
	if got := ix.NumPristine(0); got != 2 {
		t.Fatalf("fresh cluster: %d pristine, want 2", got)
	}
	s := c.Servers[0]
	if _, err := s.Place("a", Alloc{Cores: 1, MemoryGB: 1}, ResVec{}, Guaranteed); err != nil {
		t.Fatal(err)
	}
	if got := ix.NumPristine(0); got != 1 {
		t.Fatalf("after place: %d pristine, want 1", got)
	}
	if got := ix.NumOccupiable(0); got != 1 {
		t.Fatalf("after place: %d occupiable, want 1", got)
	}
	if err := s.Remove("a"); err != nil {
		t.Fatal(err)
	}
	if got := ix.NumPristine(0); got != 2 {
		t.Fatalf("after remove: %d pristine, want 2 (zero caused pressure leaves no residue)", got)
	}
	s.SetProbe(ResVec{0: 0.5})
	if got := ix.NumPristine(0); got != 1 {
		t.Fatalf("after probe: %d pristine, want 1", got)
	}
	s.SetProbe(ResVec{})
	if got := ix.NumPristine(0); got != 2 {
		t.Fatalf("after probe cleared: %d pristine, want 2", got)
	}
	s.SetDet(DetSuspect)
	if got := ix.NumPristine(0) + ix.NumOccupiable(0); got != 1 {
		t.Fatalf("suspect server still indexed: %d members, want 1", got)
	}
	s.SetDet(DetOK)
	if got := ix.NumPristine(0); got != 2 {
		t.Fatalf("after detector recovery: %d pristine, want 2", got)
	}
	if err := ix.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestStandaloneServerNoIndex ensures servers built outside a cluster stay
// fully functional with no index: mutators are no-ops on the (absent) index
// and FreeAfterEviction recomputes on demand.
func TestStandaloneServerNoIndex(t *testing.T) {
	p := LocalPlatforms()[0]
	s := NewServer(7, &p)
	if _, err := s.Place("a", Alloc{Cores: 1, MemoryGB: 1}, ResVec{}, BestEffort); err != nil {
		t.Fatal(err)
	}
	s.SetDet(DetSuspect)
	s.SetDet(DetOK)
	cores, mem, ev := s.FreeAfterEviction()
	if cores != p.Cores || mem != p.MemoryGB || len(ev) != 1 {
		t.Fatalf("standalone FreeAfterEviction = (%d, %v, %d evictable), want (%d, %v, 1)",
			cores, mem, len(ev), p.Cores, p.MemoryGB)
	}
}
