// Package quasar is a Go implementation of Quasar, the resource-efficient
// and QoS-aware cluster manager of Delimitrou & Kozyrakis (ASPLOS 2014),
// together with the simulated datacenter substrate its evaluation needs.
//
// The package is a thin facade over the internal packages; it exposes
// everything a downstream user needs to assemble a cluster, generate
// workloads with performance targets, run a manager (Quasar or one of the
// paper's baselines) against simulated time, and measure the outcome.
//
// # Quickstart
//
//	cl, _ := quasar.NewLocalCluster()
//	rt := quasar.NewRuntime(cl, quasar.RuntimeOptions{Seed: 1})
//	mgr := quasar.NewManager(rt, quasar.DefaultManagerOptions())
//	mgr.SeedLibrary(quasar.Library(u, 3))
//	rt.SetManager(mgr)
//
//	u := quasar.NewUniverse(cl.Platforms, 1, 3)
//	job := u.New(quasar.Spec{Type: quasar.Hadoop, Family: -1, MaxNodes: 4})
//	task := rt.Submit(job, 0, nil)
//	rt.Run(24 * 3600)
//
// See examples/ for complete programs and cmd/quasar-bench for the
// reproduction of every table and figure in the paper.
package quasar

import (
	"quasar/internal/baselines"
	"quasar/internal/classify"
	"quasar/internal/cluster"
	"quasar/internal/core"
	"quasar/internal/loadgen"
	"quasar/internal/perfmodel"
	"quasar/internal/sim"
	"quasar/internal/workload"
)

// Core cluster types.
type (
	// Cluster is a set of heterogeneous servers.
	Cluster = cluster.Cluster
	// Platform describes one server configuration (Table 1).
	Platform = cluster.Platform
	// Server is one machine with its placement bookkeeping.
	Server = cluster.Server
	// Alloc is a per-server resource share (cores + memory).
	Alloc = cluster.Alloc
	// ResVec holds one value per shared interference resource.
	ResVec = cluster.ResVec
)

// Workload types.
type (
	// Instance is one submitted workload with its hidden ground-truth
	// genome and its performance target.
	Instance = workload.Instance
	// Spec configures workload generation.
	Spec = workload.Spec
	// Target is a performance constraint (execution time, QPS+latency, or
	// IPS, per workload class).
	Target = workload.Target
	// Dataset describes a workload's input data.
	Dataset = workload.Dataset
	// Universe generates workload instances over a platform set.
	Universe = workload.Universe
	// FrameworkConfig holds Hadoop-style framework knobs (Table 3).
	FrameworkConfig = workload.FrameworkConfig
	// WorkloadType enumerates the supported workload kinds.
	WorkloadType = workload.Type
)

// Workload kinds (the paper's evaluation mix).
const (
	Hadoop     = workload.Hadoop
	Spark      = workload.Spark
	Storm      = workload.Storm
	Memcached  = workload.Memcached
	Cassandra  = workload.Cassandra
	Webserver  = workload.Webserver
	SingleNode = workload.SingleNode
)

// Runtime types.
type (
	// Runtime is the simulated cluster world: it executes workloads
	// against the ground-truth performance model under virtual time.
	Runtime = core.Runtime
	// RuntimeOptions configures the runtime.
	RuntimeOptions = core.Options
	// Task is a submitted workload plus its runtime state.
	Task = core.Task
	// Manager is the decision-maker interface (Quasar or a baseline).
	Manager = core.Manager
	// QuasarManager is the paper's cluster manager.
	QuasarManager = core.Quasar
	// ManagerOptions tunes the Quasar manager.
	ManagerOptions = core.QuasarOptions
	// BaselineManager is a reservation/auto-scaling comparison manager.
	BaselineManager = baselines.Baseline
	// BaselineOptions configures a baseline manager.
	BaselineOptions = baselines.Options
	// LoadPattern maps virtual time to offered QPS.
	LoadPattern = loadgen.Pattern
	// RNG is the deterministic random source used throughout.
	RNG = sim.RNG
	// Estimates is a workload's classification output.
	Estimates = classify.Estimates
	// Genome is a workload's hidden ground-truth parameter vector.
	Genome = perfmodel.Genome
)

// Task statuses.
const (
	StatusQueued    = core.StatusQueued
	StatusProfiling = core.StatusProfiling
	StatusRunning   = core.StatusRunning
	StatusCompleted = core.StatusCompleted
)

// NewLocalCluster builds the paper's 40-server local cluster: four servers
// of each of the ten platforms A-J of Table 1.
func NewLocalCluster() (*Cluster, error) {
	return cluster.New(cluster.LocalPlatforms(), []int{4, 4, 4, 4, 4, 4, 4, 4, 4, 4})
}

// NewEC2Cluster builds the paper's 200-server dedicated EC2 cluster over 14
// instance types.
func NewEC2Cluster() (*Cluster, error) {
	return cluster.NewUniform(cluster.EC2Platforms(), 200)
}

// NewCluster builds a custom cluster with counts[i] servers of
// platforms[i].
func NewCluster(platforms []Platform, counts []int) (*Cluster, error) {
	return cluster.New(platforms, counts)
}

// LocalPlatforms returns the Table 1 platform definitions.
func LocalPlatforms() []Platform { return cluster.LocalPlatforms() }

// EC2Platforms returns the EC2 platform definitions.
func EC2Platforms() []Platform { return cluster.EC2Platforms() }

// NewRuntime builds a simulated runtime over a cluster.
func NewRuntime(cl *Cluster, opts RuntimeOptions) *Runtime { return core.NewRuntime(cl, opts) }

// NewUniverse builds a deterministic workload generator for the platform
// set, with the given number of families per workload archetype.
func NewUniverse(platforms []Platform, seed int64, familiesPerArchetype int) *Universe {
	return workload.NewUniverse(platforms, seed, familiesPerArchetype)
}

// NewManager builds the Quasar manager over a runtime. Call SeedLibrary
// with an offline-profiled workload set, then install it with
// rt.SetManager.
func NewManager(rt *Runtime, opts ManagerOptions) *QuasarManager { return core.NewQuasar(rt, opts) }

// DefaultManagerOptions returns the paper's Quasar settings.
func DefaultManagerOptions() ManagerOptions { return core.DefaultQuasarOptions() }

// NewBaseline builds one of the paper's comparison managers.
func NewBaseline(rt *Runtime, opts BaselineOptions) *BaselineManager { return baselines.New(rt, opts) }

// NewDRF builds a Mesos-style dominant-resource-fairness manager.
func NewDRF(rt *Runtime, misestimate bool, maxNodes int) *baselines.DRF {
	return baselines.NewDRF(rt, misestimate, maxNodes)
}

// DefaultBaselineOptions returns the reservation + least-loaded baseline
// configuration.
func DefaultBaselineOptions() BaselineOptions { return baselines.DefaultOptions() }

// Library generates an offline-profiled workload library: n workloads of
// every type, for seeding the classification engine.
func Library(u *Universe, nPerType int) []*Instance {
	return u.Library(workload.LibraryTypes, nPerType)
}

// Load patterns (for latency-critical services).
type (
	// FlatLoad is constant offered load.
	FlatLoad = loadgen.Flat
	// FluctuatingLoad is a sinusoidal day pattern.
	FluctuatingLoad = loadgen.Fluctuating
	// SpikeLoad is base load with a sharp plateau.
	SpikeLoad = loadgen.Spike
	// DiurnalLoad is a 24-hour day/night cycle.
	DiurnalLoad = loadgen.Diurnal
	// NoisyLoad wraps a pattern with multiplicative noise.
	NoisyLoad = loadgen.Noisy
)
