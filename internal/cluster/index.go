package cluster

import "fmt"

// This file implements the cluster's free-resource index: per-platform
// bucket lists of schedulable servers keyed by free-after-eviction core
// count, plus a separate "pristine" list of completely empty servers. The
// index is maintained incrementally — every mutation that can change a
// server's schedulability or free capacity (place, remove, resize, fault
// state, probe/degrade/isolation changes) reclassifies just that server —
// so the scheduler's ranking never scans the full server list.
//
// Pristine servers (no placements, no injected pressure of any kind) are
// special because their ranking inputs are bit-identical across a platform:
// the scheduler computes one candidate per platform and stamps it onto every
// pristine member. The classification is deliberately structural (exact-zero
// checks) so any floating-point residue left by place/remove cycles demotes
// a server to the ordinary per-server path instead of risking a quality
// value that differs in the last bit from a full recomputation.

// server index classification states.
const (
	ixNone     int8 = iota // not indexed: unschedulable or no usable capacity
	ixOccupied             // in a free-core bucket: has capacity, not pristine
	ixPristine             // in the pristine list: completely empty
)

// pindex is one platform's slice of the index.
type pindex struct {
	// buckets[b] holds the occupiable servers whose free-after-eviction
	// core count is exactly b (1..Cores). Membership order is maintenance
	// order (swap-remove), which is deterministic for a deterministic
	// mutation sequence; consumers re-sort by a total order anyway.
	buckets [][]*Server
	// pristine holds the schedulable servers with nothing on them at all.
	pristine []*Server
}

// FreeIndex is the cluster-wide free-resource index. It is built by New and
// kept current by the server mutators; standalone servers (built directly
// with NewServer) have no index and fall back to on-demand recomputation.
type FreeIndex struct {
	c     *Cluster
	plats []pindex
}

func newFreeIndex(c *Cluster) *FreeIndex {
	ix := &FreeIndex{c: c, plats: make([]pindex, len(c.Platforms))}
	for i := range ix.plats {
		ix.plats[i].buckets = make([][]*Server, c.Platforms[i].Cores+1)
	}
	for _, s := range c.Servers {
		ix.update(s)
	}
	return ix
}

// Idx returns the cluster's free-resource index (nil only for a zero-value
// Cluster not built through New).
func (c *Cluster) Idx() *FreeIndex { return c.index }

// update reclassifies one server after a state change: detach from its
// current list, recompute eligibility and cached capacity, reattach.
func (ix *FreeIndex) update(s *Server) {
	ix.detach(s)
	if !s.Schedulable() {
		return
	}
	s.recomputeEv()
	if s.evCores < 1 || s.evMemGB <= 0 {
		return
	}
	p := &ix.plats[s.pidx]
	if s.isPristine() {
		s.ixKind, s.ixPos = ixPristine, len(p.pristine)
		p.pristine = append(p.pristine, s)
		return
	}
	band := s.evCores
	if band >= len(p.buckets) {
		// Defensive clamp; evCores never exceeds the platform core count.
		band = len(p.buckets) - 1
	}
	s.ixKind, s.ixBand, s.ixPos = ixOccupied, band, len(p.buckets[band])
	p.buckets[band] = append(p.buckets[band], s)
}

// detach removes the server from whichever list currently holds it, using
// swap-remove so membership changes are O(1).
func (ix *FreeIndex) detach(s *Server) {
	switch s.ixKind {
	case ixPristine:
		p := &ix.plats[s.pidx]
		swapRemove(&p.pristine, s.ixPos)
	case ixOccupied:
		p := &ix.plats[s.pidx]
		swapRemove(&p.buckets[s.ixBand], s.ixPos)
	}
	s.ixKind = ixNone
}

// swapRemove deletes list[i] by moving the tail element into its slot,
// updating the moved server's position.
func swapRemove(list *[]*Server, i int) {
	l := *list
	last := len(l) - 1
	l[i] = l[last]
	l[i].ixPos = i
	l[last] = nil
	*list = l[:last]
}

// AppendPristine appends platform pidx's pristine servers to dst and returns
// it. The caller owns dst; the index's internal lists are never exposed.
func (ix *FreeIndex) AppendPristine(pidx int, dst []*Server) []*Server {
	return append(dst, ix.plats[pidx].pristine...)
}

// AppendOccupiable appends platform pidx's occupiable (non-pristine, free
// capacity after eviction) servers to dst, bucket by bucket from most free
// cores down, and returns it.
func (ix *FreeIndex) AppendOccupiable(pidx int, dst []*Server) []*Server {
	b := ix.plats[pidx].buckets
	for band := len(b) - 1; band >= 1; band-- {
		//lint:allow(hotalloc) appends into the caller's reusable scratch slice; capacity is retained across Schedule calls
		dst = append(dst, b[band]...)
	}
	return dst
}

// NumPristine reports the pristine-server count of platform pidx.
func (ix *FreeIndex) NumPristine(pidx int) int { return len(ix.plats[pidx].pristine) }

// NumOccupiable reports the occupiable-server count of platform pidx.
func (ix *FreeIndex) NumOccupiable(pidx int) int {
	n := 0
	for _, b := range ix.plats[pidx].buckets {
		n += len(b)
	}
	return n
}

// reindex is the one choke point every server mutator ends in: it advances
// the owning cluster's mutation generation and pushes the state change into
// its index. Standalone servers have no cluster and skip silently.
func (s *Server) reindex() {
	if s.cl == nil {
		return
	}
	s.cl.gen++
	if s.cl.index != nil {
		s.cl.index.update(s)
	}
}

// recomputeEv refreshes the cached free-after-eviction capacity and the
// evictable (best-effort) placement list. The accumulation order — free
// memory first, then best-effort allocations in workload-ID order — is
// fixed, so the cached float is bit-identical to an on-demand recomputation.
func (s *Server) recomputeEv() {
	cores, mem := s.FreeCores(), s.FreeMemGB()
	be := s.beList[:0]
	for _, pl := range s.order {
		if pl.BestEffort {
			cores += pl.Alloc.Cores
			mem += pl.Alloc.MemoryGB
			//lint:allow(hotalloc) evictable cache growth: reaches the server's best-effort peak once, then reused
			be = append(be, pl)
		}
	}
	s.evCores, s.evMemGB, s.beList = cores, mem, be
}

// isPristine reports whether the server is completely empty: nothing placed,
// no residual accounting, no injected pressure, no partitioning config. The
// checks are exact on purpose — see the file comment.
func (s *Server) isPristine() bool {
	return len(s.placements) == 0 && s.usedCores == 0 &&
		s.usedMemGB == 0 && //lint:allow(floatcmp) structural exact-zero: residue demotes to the per-server path, never misclassifies
		s.pressure == (ResVec{}) && s.probe == (ResVec{}) &&
		s.degrade == (ResVec{}) && s.isolation == (ResVec{})
}

// FreeAfterEviction returns the capacity available counting best-effort
// residents as removable, plus those residents in workload-ID order. Indexed
// servers answer from the cache maintained on every mutation; standalone
// servers recompute. The returned slice is the server's cache — callers must
// not mutate it, and it is valid until the next mutation of this server.
func (s *Server) FreeAfterEviction() (cores int, mem float64, evictable []*Placement) {
	if s.ixKind != ixNone {
		return s.evCores, s.evMemGB, s.beList
	}
	s.recomputeEv()
	return s.evCores, s.evMemGB, s.beList
}

// Validate cross-checks every index entry against a from-scratch recompute
// of the server's classification: membership, bucket band, position
// bookkeeping, cached capacity, and the absence of duplicates. It is a full
// scan — test and debugging use only.
func (ix *FreeIndex) Validate() error {
	seen := make(map[int]int8)
	for pidx := range ix.plats {
		p := &ix.plats[pidx]
		for pos, s := range p.pristine {
			if err := ix.checkEntry(s, pidx, ixPristine, 0, pos, seen); err != nil {
				return err
			}
		}
		for band, b := range p.buckets {
			for pos, s := range b {
				if err := ix.checkEntry(s, pidx, ixOccupied, band, pos, seen); err != nil {
					return err
				}
			}
		}
	}
	for _, s := range ix.c.Servers {
		wantKind, wantBand := ixNone, 0
		cores, mem, _ := recomputeFree(s)
		if s.Schedulable() && cores >= 1 && mem > 0 {
			if s.isPristine() {
				wantKind = ixPristine
			} else {
				wantKind, wantBand = ixOccupied, cores
			}
		}
		gotKind, ok := seen[s.ID]
		if !ok {
			gotKind = ixNone
		}
		if gotKind != wantKind {
			return fmt.Errorf("index: server %d classified %d, recompute says %d", s.ID, gotKind, wantKind)
		}
		if wantKind == ixOccupied && s.ixBand != wantBand {
			return fmt.Errorf("index: server %d in band %d, recompute says %d", s.ID, s.ixBand, wantBand)
		}
		if wantKind != ixNone {
			wc, wm, _ := recomputeFree(s)
			if s.evCores != wc || s.evMemGB != wm { //lint:allow(floatcmp) cache must be bit-identical to recompute
				return fmt.Errorf("index: server %d cached ev (%d, %v), recompute (%d, %v)",
					s.ID, s.evCores, s.evMemGB, wc, wm)
			}
		}
	}
	return nil
}

func (ix *FreeIndex) checkEntry(s *Server, pidx int, kind int8, band, pos int, seen map[int]int8) error {
	if _, dup := seen[s.ID]; dup {
		return fmt.Errorf("index: server %d appears twice", s.ID)
	}
	seen[s.ID] = kind
	if s.pidx != pidx {
		return fmt.Errorf("index: server %d filed under platform %d, has pidx %d", s.ID, pidx, s.pidx)
	}
	if s.ixKind != kind {
		return fmt.Errorf("index: server %d listed as kind %d, marked %d", s.ID, kind, s.ixKind)
	}
	if kind == ixOccupied && s.ixBand != band {
		return fmt.Errorf("index: server %d listed in band %d, marked %d", s.ID, band, s.ixBand)
	}
	if s.ixPos != pos {
		return fmt.Errorf("index: server %d at position %d, marked %d", s.ID, pos, s.ixPos)
	}
	return nil
}

// recomputeFree is the oracle expression for free-after-eviction capacity,
// kept separate from the cache so Validate compares two independent paths.
func recomputeFree(s *Server) (cores int, mem float64, evictable []*Placement) {
	cores, mem = s.FreeCores(), s.FreeMemGB()
	for _, pl := range s.order {
		if pl.BestEffort {
			cores += pl.Alloc.Cores
			mem += pl.Alloc.MemoryGB
			evictable = append(evictable, pl)
		}
	}
	return cores, mem, evictable
}
