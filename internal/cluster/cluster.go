package cluster

import (
	"fmt"
	"slices"
	"strings"
)

// Alloc is the per-server share of an allocation: a number of cores and an
// amount of memory on one server.
type Alloc struct {
	Cores    int
	MemoryGB float64
}

// Valid reports whether the allocation requests a positive amount of both
// resources.
func (a Alloc) Valid() bool { return a.Cores > 0 && a.MemoryGB > 0 }

// Placement records that a workload occupies an Alloc on a Server.
//
// Caused is the shared-resource pressure this workload exerts at this
// allocation; it feeds the interference penalty of everything colocated.
// ActiveCores and ActiveMemGB are the *actually used* resources as opposed
// to the allocated ones; the workload model refreshes them each tick, and
// utilization figures (Fig. 1, 7, 10, 11) are computed from them.
type Placement struct {
	WorkloadID string
	Server     *Server
	Alloc      Alloc
	Caused     ResVec
	Tier       Tier

	ActiveCores float64
	ActiveMemGB float64
	ActiveDisk  float64 // fraction of server disk bandwidth in use
}

// DetectorState is a failure detector's belief about a server. It lives on
// the server so the scheduler and managers share one view; the runtime's
// heartbeat detector is the only writer.
type DetectorState int

const (
	// DetOK: heartbeats arriving normally.
	DetOK DetectorState = iota
	// DetSuspect: some heartbeats missed; do not place new work here.
	DetSuspect
	// DetDead: declared failed; residents have been (or are being) fenced
	// and displaced.
	DetDead
)

func (d DetectorState) String() string {
	switch d {
	case DetOK:
		return "ok"
	case DetSuspect:
		return "suspect"
	case DetDead:
		return "dead"
	}
	return fmt.Sprintf("det(%d)", int(d))
}

// Server is one machine of the cluster: a platform instance plus the
// bookkeeping of everything placed on it.
type Server struct {
	ID       int
	Platform *Platform

	usedCores int
	usedMemGB float64
	// order holds the resident placements ascending by workload ID, so the
	// per-decision sweeps over residents iterate deterministically without
	// sorting or allocating, and find locates one by binary search.
	order     []*Placement
	pressure  ResVec // sum of residents' Caused vectors
	probe     ResVec // injected microbenchmark pressure (iBench-style)
	isolation ResVec // fraction of cross-workload pressure removed per resource

	// Fault state. down and partitioned are physical ground truth (set by
	// fault injection through the runtime); degrade is extra interference
	// pressure modeling a transient slowdown (thermal throttling, a failing
	// disk, a noisy co-tenant below the virtualization line); det is the
	// failure detector's belief, which lags the physical truth by the
	// missed-heartbeat window.
	down        bool
	partitioned bool
	degrade     ResVec
	det         DetectorState

	// stamp is the mutation generation of this server's last change (see
	// Stamp).
	stamp uint64

	// Free-resource index state (see index.go). cl/pidx tie the server to
	// its owning cluster's index; standalone servers leave cl nil. The ev*
	// fields cache free-after-eviction capacity, recomputed on every
	// mutation with the same accumulation order as the scheduler's full
	// scan so the cache is bit-identical to a recompute.
	cl      *Cluster
	pidx    int
	ixKind  int8
	ixBand  int
	ixPos   int
	evCores int
	evMemGB float64
	beList  []*Placement
}

// NewServer returns an empty server of the given platform.
func NewServer(id int, p *Platform) *Server {
	return &Server{ID: id, Platform: p, pidx: -1}
}

// find locates the workload's placement in order: its index, or where it
// would be inserted.
func (s *Server) find(workloadID string) (int, bool) {
	return slices.BinarySearchFunc(s.order, workloadID, func(pl *Placement, id string) int {
		return strings.Compare(pl.WorkloadID, id)
	})
}

// PlatformIdx returns the position of the server's platform in its
// cluster's Platforms, fixed when New builds the cluster (-1 for a server
// built alone by NewServer). Platform names are unique within a cluster, so
// it equals Cluster.PlatformIndex(s.Platform.Name) without the name scan.
func (s *Server) PlatformIdx() int { return s.pidx }

// FreeCores returns the number of unallocated cores.
func (s *Server) FreeCores() int { return s.Platform.Cores - s.usedCores }

// FreeMemGB returns the unallocated memory.
func (s *Server) FreeMemGB() float64 { return s.Platform.MemoryGB - s.usedMemGB }

// UsedCores returns the number of allocated cores.
func (s *Server) UsedCores() int { return s.usedCores }

// UsedMemGB returns the allocated memory.
func (s *Server) UsedMemGB() float64 { return s.usedMemGB }

// Fits reports whether alloc can be placed on the server right now. A server
// that is down or partitioned cannot take new work.
func (s *Server) Fits(alloc Alloc) bool {
	if !s.Reachable() {
		return false
	}
	return alloc.Cores <= s.FreeCores() && alloc.MemoryGB <= s.FreeMemGB()+1e-9
}

// Up reports whether the server is physically running.
func (s *Server) Up() bool { return !s.down }

// SetDown marks the server crashed. Placements are NOT cleared here: they
// are the manager's belief, and it only learns of the crash through the
// failure detector (or a restart reconciliation).
func (s *Server) SetDown() {
	s.down = true
	s.degrade = ResVec{}
	s.partitioned = false
	s.reindex()
}

// SetUp brings a crashed server back. It rejoins clean: not partitioned, not
// degraded. Detector state recovers on the next heartbeat.
func (s *Server) SetUp() {
	s.down = false
	s.degrade = ResVec{}
	s.partitioned = false
	s.reindex()
}

// SetPartitioned sets whether the server is network-partitioned from the
// manager: it keeps running resident work, but heartbeats are lost.
func (s *Server) SetPartitioned(p bool) {
	if s.partitioned == p {
		return
	}
	s.partitioned = p
	s.reindex()
}

// Partitioned reports whether heartbeats from this server are being lost.
func (s *Server) Partitioned() bool { return s.partitioned }

// Reachable reports whether the manager can talk to the server: it is up
// and not partitioned. Unreachable servers accept no placements.
func (s *Server) Reachable() bool { return !s.down && !s.partitioned }

// SetDegrade installs extra interference pressure modeling a transient
// slowdown (degraded IPC). It replaces any previous degradation.
func (s *Server) SetDegrade(v ResVec) {
	if s.degrade == v {
		return
	}
	s.degrade = v
	s.reindex()
}

// Degraded reports whether any slowdown pressure is installed.
func (s *Server) Degraded() bool {
	for r := range s.degrade {
		if s.degrade[r] != 0 { //lint:allow(floatcmp) zero means "no pressure installed"
			return true
		}
	}
	return false
}

// Stamp returns the generation of the server's last mutation: for a server
// of a cluster, the Cluster.Gen value that mutation produced; for a
// standalone server, the count of its mutations. Anything PressureOn, Up or a
// resident's Alloc can report changes only through a mutation, so a reader
// that computed from this server at cluster generation g may reuse its answer
// while Stamp() <= g.
func (s *Server) Stamp() uint64 { return s.stamp }

// Det returns the failure detector's belief about this server.
func (s *Server) Det() DetectorState { return s.det }

// SetDet records the failure detector's belief. Only the runtime's heartbeat
// detector should call this.
func (s *Server) SetDet(d DetectorState) {
	if s.det == d {
		// Heartbeats confirm the common case every beat; skip the reindex.
		return
	}
	s.det = d
	s.reindex()
}

// Schedulable reports whether the scheduler may place new work here: the
// server is reachable and the failure detector does not suspect it.
func (s *Server) Schedulable() bool { return s.Reachable() && s.det == DetOK }

// Place reserves alloc for the given workload of the given tier. It returns
// the placement or an error when capacity is insufficient or the workload
// already resides here.
func (s *Server) Place(workloadID string, alloc Alloc, caused ResVec, tier Tier) (*Placement, error) {
	if !alloc.Valid() {
		return nil, fmt.Errorf("cluster: invalid alloc %+v for %s", alloc, workloadID)
	}
	i, dup := s.find(workloadID)
	if dup {
		return nil, fmt.Errorf("cluster: %s already placed on server %d", workloadID, s.ID)
	}
	if !s.Reachable() {
		return nil, fmt.Errorf("cluster: server %d is unreachable (down=%v partitioned=%v)",
			s.ID, s.down, s.partitioned)
	}
	if !s.Fits(alloc) {
		return nil, fmt.Errorf("cluster: server %d cannot fit %+v (free %d cores, %.1f GB)",
			s.ID, alloc, s.FreeCores(), s.FreeMemGB())
	}
	pl := &Placement{WorkloadID: workloadID, Server: s, Alloc: alloc, Caused: caused, Tier: tier}
	s.order = slices.Insert(s.order, i, pl)
	s.usedCores += alloc.Cores
	s.usedMemGB += alloc.MemoryGB
	s.pressure = s.pressure.Add(caused)
	s.reindex()
	return pl, nil
}

// Remove releases the workload's placement. It is an error to remove a
// workload that is not placed here.
func (s *Server) Remove(workloadID string) error {
	i, ok := s.find(workloadID)
	if !ok {
		return fmt.Errorf("cluster: %s not placed on server %d", workloadID, s.ID)
	}
	pl := s.order[i]
	s.order = slices.Delete(s.order, i, i+1)
	s.usedCores -= pl.Alloc.Cores
	s.usedMemGB -= pl.Alloc.MemoryGB
	s.pressure = s.pressure.Sub(pl.Caused)
	s.reindex()
	return nil
}

// Resize changes the allocation and caused-pressure of an existing
// placement in place (scale-up/down adjustment).
func (s *Server) Resize(workloadID string, alloc Alloc, caused ResVec) error {
	pl := s.Placement(workloadID)
	if pl == nil {
		return fmt.Errorf("cluster: %s not placed on server %d", workloadID, s.ID)
	}
	if !s.Reachable() {
		return fmt.Errorf("cluster: server %d is unreachable, cannot resize %s", s.ID, workloadID)
	}
	dCores := alloc.Cores - pl.Alloc.Cores
	dMem := alloc.MemoryGB - pl.Alloc.MemoryGB
	if dCores > s.FreeCores() || dMem > s.FreeMemGB()+1e-9 {
		return fmt.Errorf("cluster: server %d cannot grow %s to %+v", s.ID, workloadID, alloc)
	}
	s.usedCores += dCores
	s.usedMemGB += dMem
	s.pressure = s.pressure.Sub(pl.Caused).Add(caused)
	pl.Alloc = alloc
	pl.Caused = caused
	s.reindex()
	return nil
}

// Placement returns the placement of the given workload, or nil.
func (s *Server) Placement(workloadID string) *Placement {
	if i, ok := s.find(workloadID); ok {
		return s.order[i]
	}
	return nil
}

// Placements returns the resident placements in workload-ID order
// (deterministic iteration). The slice is the server's live ordering —
// callers sweep it every decision and must not mutate it; it is valid
// until the next Place or Remove on this server.
func (s *Server) Placements() []*Placement { return s.order }

// NumPlacements returns the number of resident workloads.
func (s *Server) NumPlacements() int { return len(s.order) }

// SetProbe injects extra shared-resource pressure (the interference
// microbenchmarks of §3.2/§4.1). It replaces any previous probe.
func (s *Server) SetProbe(p ResVec) {
	if s.probe == p {
		return
	}
	s.probe = p
	s.reindex()
}

// SetIsolation configures hardware partitioning (cache ways, NIC rate
// limits, ...): isolation[r] is the fraction of cross-workload pressure in
// resource r that partitioning eliminates (§4.4 "resource partitioning is
// orthogonal ... Quasar will have to determine the settings").
func (s *Server) SetIsolation(v ResVec) {
	for r := range v {
		s.isolation[r] = clampUnit(v[r])
	}
	s.reindex()
}

// Isolation returns the current partitioning configuration.
func (s *Server) Isolation() ResVec { return s.isolation }

func clampUnit(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// PressureOn returns the shared-resource pressure experienced by the given
// workload: everything caused by its neighbours and injected probes, but not
// by itself, attenuated by any configured partitioning. workloadID may be
// "" to get total pressure.
func (s *Server) PressureOn(workloadID string) ResVec {
	p := s.pressure.Add(s.probe).Add(s.degrade)
	if pl := s.Placement(workloadID); pl != nil {
		p = p.Sub(pl.Caused)
	}
	for r := range p {
		p[r] *= 1 - s.isolation[r]
	}
	return p
}

// CPUUtilization returns actually-busy cores divided by total cores.
// Summation runs in workload-ID order: float addition is not associative,
// so only a fixed order keeps the last bits reproducible run to run.
// A down server does no work, whatever stale placements it still carries.
func (s *Server) CPUUtilization() float64 {
	if s.down {
		return 0
	}
	busy := 0.0
	for _, pl := range s.Placements() {
		busy += pl.ActiveCores
	}
	u := busy / float64(s.Platform.Cores)
	if u > 1 {
		u = 1
	}
	return u
}

// MemUtilization returns actually-used memory divided by total memory.
func (s *Server) MemUtilization() float64 {
	if s.down {
		return 0
	}
	used := 0.0
	for _, pl := range s.Placements() {
		used += pl.ActiveMemGB
	}
	u := used / s.Platform.MemoryGB
	if u > 1 {
		u = 1
	}
	return u
}

// DiskUtilization returns the fraction of disk bandwidth in use.
func (s *Server) DiskUtilization() float64 {
	if s.down {
		return 0
	}
	used := 0.0
	for _, pl := range s.Placements() {
		used += pl.ActiveDisk
	}
	if used > 1 {
		used = 1
	}
	return used
}

// Cluster is a set of servers drawn from a list of platforms.
type Cluster struct {
	Platforms []Platform
	Servers   []*Server

	index *FreeIndex
	gen   uint64
}

// Gen returns the cluster's mutation generation: a counter that advances on
// every change to any server's placements, allocations, pressure, isolation
// or fault/detector state. Two reads returning the same value bracket an
// interval in which no server changed, so a scan over the servers would
// repeat its answer.
func (c *Cluster) Gen() uint64 { return c.gen }

// New builds a cluster with count[i] servers of platforms[i]. Platform
// names must be unique: callers index estimates by a server's PlatformIdx.
func New(platforms []Platform, counts []int) (*Cluster, error) {
	if len(platforms) != len(counts) {
		return nil, fmt.Errorf("cluster: %d platforms but %d counts", len(platforms), len(counts))
	}
	c := &Cluster{Platforms: platforms}
	id := 0
	for i := range platforms {
		if err := platforms[i].Validate(); err != nil {
			return nil, err
		}
		if c.PlatformIndex(platforms[i].Name) != i {
			return nil, fmt.Errorf("cluster: duplicate platform name %s", platforms[i].Name)
		}
		for j := 0; j < counts[i]; j++ {
			s := NewServer(id, &c.Platforms[i])
			s.cl, s.pidx = c, i
			c.Servers = append(c.Servers, s)
			id++
		}
	}
	c.index = newFreeIndex(c)
	return c, nil
}

// NewUniform builds a cluster with the same number of servers per platform,
// distributing any remainder over the first platforms.
func NewUniform(platforms []Platform, total int) (*Cluster, error) {
	counts := make([]int, len(platforms))
	for i := 0; i < total; i++ {
		counts[i%len(platforms)]++
	}
	return New(platforms, counts)
}

// PlatformIndex returns the position of the named platform, or -1.
func (c *Cluster) PlatformIndex(name string) int {
	for i := range c.Platforms {
		if c.Platforms[i].Name == name {
			return i
		}
	}
	return -1
}

// TotalCores returns the core count of the whole cluster.
func (c *Cluster) TotalCores() int {
	n := 0
	for _, s := range c.Servers {
		n += s.Platform.Cores
	}
	return n
}

// TotalMemGB returns the memory capacity of the whole cluster.
func (c *Cluster) TotalMemGB() float64 {
	m := 0.0
	for _, s := range c.Servers {
		m += s.Platform.MemoryGB
	}
	return m
}

// FreeCores sums unallocated cores over all servers.
func (c *Cluster) FreeCores() int {
	n := 0
	for _, s := range c.Servers {
		n += s.FreeCores()
	}
	return n
}

// NumLive counts servers the scheduler can currently use (reachable and not
// suspected by the failure detector).
func (c *Cluster) NumLive() int {
	n := 0
	for _, s := range c.Servers {
		if s.Schedulable() {
			n++
		}
	}
	return n
}

// LiveFreeCores sums unallocated cores over schedulable servers: the
// capacity actually available to recover displaced work.
func (c *Cluster) LiveFreeCores() int {
	n := 0
	for _, s := range c.Servers {
		if s.Schedulable() {
			n += s.FreeCores()
		}
	}
	return n
}
