// Package workload defines the workloads submitted to the cluster manager:
// their type (which analytics framework or service), dataset, performance
// target, framework configuration knobs, and the hidden ground-truth genome
// that the perfmodel evaluates. The manager sees everything here except the
// genome.
package workload

import (
	"fmt"

	"quasar/internal/cluster"
	"quasar/internal/perfmodel"
)

// Type is the concrete workload kind; it maps onto a perfmodel archetype
// and determines which knobs and constraints apply.
type Type int

const (
	Hadoop Type = iota
	Spark
	Storm
	Memcached
	Cassandra
	Webserver
	SingleNode

	NumTypes
)

var typeNames = [NumTypes]string{
	"hadoop", "spark", "storm", "memcached", "cassandra", "webserver", "single-node",
}

func (t Type) String() string {
	if t < 0 || t >= NumTypes {
		return fmt.Sprintf("type(%d)", int(t))
	}
	return typeNames[t]
}

// Archetype returns the perfmodel archetype name backing this type.
func (t Type) Archetype() string {
	switch t {
	case Hadoop:
		return "hadoop"
	case Spark:
		return "spark"
	case Storm:
		return "storm"
	case Memcached:
		return "memcached"
	case Cassandra:
		return "cassandra"
	case Webserver:
		return "webserver"
	default:
		return "parsec" // single-node default; generator picks among several
	}
}

// Class returns the broad workload class of this type.
func (t Type) Class() perfmodel.Class {
	switch t {
	case Hadoop, Spark, Storm:
		return perfmodel.Analytics
	case Memcached, Cassandra, Webserver:
		return perfmodel.LatencyCritical
	default:
		return perfmodel.SingleNode
	}
}

// Distributed reports whether the workload can scale out to several servers.
func (t Type) Distributed() bool { return t.Class() != perfmodel.SingleNode }

// Stateful reports whether scaling out requires state migration (the paper's
// microshard migration for memcached/Cassandra).
func (t Type) Stateful() bool { return t == Memcached || t == Cassandra }

// Target is the performance constraint of a workload, expressed per class
// exactly as the paper's interface (§3.1): execution time for distributed
// frameworks, QPS + tail latency for latency-critical services, IPS
// (normalized here to work-units/sec) for single-node workloads.
type Target struct {
	Class perfmodel.Class

	// CompletionSecs applies to Analytics workloads.
	CompletionSecs float64

	// QPS and LatencyUS (99th percentile bound, microseconds) apply to
	// LatencyCritical workloads.
	QPS       float64
	LatencyUS float64

	// IPS applies to SingleNode workloads (work units per second).
	IPS float64
}

// Validate checks the target matches its class.
func (t Target) Validate() error {
	switch t.Class {
	case perfmodel.Analytics:
		if t.CompletionSecs <= 0 {
			return fmt.Errorf("workload: analytics target needs CompletionSecs, got %+v", t)
		}
	case perfmodel.LatencyCritical:
		if t.QPS <= 0 || t.LatencyUS <= 0 {
			return fmt.Errorf("workload: latency target needs QPS and LatencyUS, got %+v", t)
		}
	case perfmodel.SingleNode:
		if t.IPS <= 0 {
			return fmt.Errorf("workload: single-node target needs IPS, got %+v", t)
		}
	default:
		return fmt.Errorf("workload: unknown class %v", t.Class)
	}
	return nil
}

// Dataset describes the input data of a workload: its size and how it
// scales the job's work and memory footprint relative to the family base
// (the paper's "dataset impact", up to ~3x).
type Dataset struct {
	Name     string
	SizeGB   float64
	WorkMult float64
	MemMult  float64
}

// HadoopDatasets returns the three Hadoop input datasets of Table 1.
func HadoopDatasets() []Dataset {
	return []Dataset{
		{Name: "netflix", SizeGB: 2.1, WorkMult: 0.6, MemMult: 0.7},
		{Name: "mahout", SizeGB: 10, WorkMult: 1.0, MemMult: 1.0},
		{Name: "wikipedia", SizeGB: 55, WorkMult: 1.9, MemMult: 1.6},
	}
}

// MemcachedDatasets returns the three memcached load mixes of Table 1.
func MemcachedDatasets() []Dataset {
	return []Dataset{
		{Name: "100B-reads", SizeGB: 64, WorkMult: 0.8, MemMult: 0.9},
		{Name: "2KB-reads", SizeGB: 256, WorkMult: 1.3, MemMult: 1.4},
		{Name: "100B-rw", SizeGB: 64, WorkMult: 1.1, MemMult: 1.0},
	}
}

// Instance is one submitted workload.
type Instance struct {
	ID      string
	Type    Type
	Family  string
	Dataset Dataset
	Target  Target

	// BestEffort workloads have no target; they soak up idle resources
	// and may be evicted or killed at any time (paper §5).
	BestEffort bool

	// MaxCostPerHour optionally caps the resource cost of the workload's
	// allocation (the cost-target extension of §4.4); 0 means unlimited.
	MaxCostPerHour float64

	// Config holds framework parameter settings (Hadoop-style knobs);
	// nil for workloads without framework knobs.
	Config *FrameworkConfig

	// Genome is the hidden ground truth. The cluster manager must never
	// read it; it is exercised only through Measure* calls that return
	// noisy observations, and by experiment harnesses computing oracle
	// numbers.
	Genome *perfmodel.Genome
}

// Tier places the workload in the cluster's yield order (see TierOf).
func (w *Instance) Tier() cluster.Tier { return TierOf(w.Type, w.BestEffort) }

// TierOf is the yield tier of a workload of type t: best-effort work has no
// target, latency-critical work with one is guaranteed, and targeted batch
// work is burstable.
func TierOf(t Type, bestEffort bool) cluster.Tier {
	switch {
	case bestEffort:
		return cluster.BestEffort
	case t.Class() == perfmodel.LatencyCritical:
		return cluster.Guaranteed
	default:
		return cluster.Burstable
	}
}

// Validate checks instance consistency.
func (w *Instance) Validate() error {
	if w.ID == "" {
		return fmt.Errorf("workload: instance with empty ID")
	}
	if w.Genome == nil {
		return fmt.Errorf("workload %s: nil genome", w.ID)
	}
	if w.Tier().Targeted() {
		if w.Target.Class != w.Type.Class() {
			return fmt.Errorf("workload %s: target class %v does not match type %v",
				w.ID, w.Target.Class, w.Type)
		}
		return w.Target.Validate()
	}
	return nil
}
