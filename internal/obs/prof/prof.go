// Package prof is the engine self-profiler: wall-clock time attribution per
// subsystem (sim step, scheduling, classification, SLO tick, chaos injection,
// trace export), for answering "where does a run actually spend its time" at
// scale.
//
// It is deliberately OUTSIDE the determinism boundary. Everything the engine
// records — traces, metrics, decisions — is a pure function of scenario +
// seed, so wall-clock reads are banned there (the quasar-lint determinism
// analyzer enforces it). Profiling is the one legitimate consumer of real
// time, and it must never leak back in: a Profiler only accumulates durations
// into its own state and reports them through its own Snapshot/WriteReport
// paths, which no simulation output embeds. Now below is the package's
// single wall-clock read and is allowlisted by name in the analyzer; adding a
// second time.Now call anywhere under internal/obs fails lint.
//
// Cost contract. A nil *Profiler is the off state: Begin returns 0 and End
// returns immediately, so instrumented subsystems pay one pointer test when
// profiling is off. When on, the cost per section is two monotonic clock
// reads and two integer adds — cheap enough to leave in the tick loop.
package prof

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// Now is the profiler's only wall-clock read (monotonic nanoseconds). It is
// allowlisted in the determinism analyzer; route every time measurement
// through it. Exported for the few callers that keep a plain duration counter
// of their own beside a Profiler (classify.TrainStats); the same rule binds
// them: the reading may only ever feed a report, never a simulation output.
func Now() int64 { return time.Since(base).Nanoseconds() }

// base anchors the monotonic clock; time.Since uses the monotonic reading,
// immune to wall-clock steps from NTP.
var base = time.Now()

// Subsystem identifies one attributed section of engine work.
type Subsystem int

const (
	// SubSimStep is the discrete-event core: pop and clock advance — the
	// queue machinery around callback dispatch.
	SubSimStep Subsystem = iota
	// SubRuntime is the cluster runtime's per-tick sweep: task progress,
	// utilization sampling, heartbeat bookkeeping.
	SubRuntime
	// SubSched is sched.Scheduler.Schedule: candidate ranking and placement.
	SubSched
	// SubClassify is the classification engine: collaborative filtering and
	// signature lookups at admission and reclassification.
	SubClassify
	// SubSLO is the SLO engine tick: SLI evaluation, burn-rate windows,
	// health scoring.
	SubSLO
	// SubChaos is fault-plan injection.
	SubChaos
	// SubTrace is trace export: sink encoding and spill I/O.
	SubTrace
	numSubsystems
)

// subsystemNames are the report/JSON spellings, indexed by Subsystem.
var subsystemNames = [numSubsystems]string{
	"sim_step", "runtime_tick", "sched", "classify", "slo", "chaos", "trace_export",
}

// String returns the report spelling.
func (s Subsystem) String() string {
	if s < 0 || s >= numSubsystems {
		return fmt.Sprintf("subsystem(%d)", int(s))
	}
	return subsystemNames[s]
}

// frame is one open section on the attribution stack.
type frame struct {
	t0    int64 // Now at Begin
	child int64 // nanoseconds consumed by nested sections
}

// Profiler accumulates wall-clock self time per subsystem: sections nest
// (runtime tick → schedule → trace export), and each level is charged only
// for time not covered by an inner section, so the report's fractions sum to
// at most the wall time. Single-goroutine, like the engine it measures;
// parallel fan-outs attribute their parent's wall-clock span, which is what
// a capacity planner wants anyway.
type Profiler struct {
	start int64
	nanos [numSubsystems]int64
	calls [numSubsystems]int64
	stack []frame
}

// New returns a running profiler.
func New() *Profiler { return &Profiler{start: Now(), stack: make([]frame, 0, 16)} }

// Enabled reports whether the profiler records (false for nil).
func (p *Profiler) Enabled() bool { return p != nil }

// Begin opens a section, returning the token End needs. Nil-safe: a nil
// profiler returns 0 and its End discards it. Every Begin must be paired
// with exactly one End (use defer on multi-return paths).
func (p *Profiler) Begin() int64 {
	if p == nil {
		return 0
	}
	t0 := Now()
	p.stack = append(p.stack, frame{t0: t0})
	return t0
}

// End closes the innermost open section, attributing its self time (elapsed
// minus nested sections) to the subsystem and rolling the full span up into
// the parent's child time.
func (p *Profiler) End(s Subsystem, t0 int64) {
	if p == nil || len(p.stack) == 0 {
		return
	}
	top := p.stack[len(p.stack)-1]
	p.stack = p.stack[:len(p.stack)-1]
	if top.t0 != t0 { // mismatched Begin/End pair: drop rather than corrupt
		return
	}
	elapsed := Now() - t0
	p.nanos[s] += elapsed - top.child
	p.calls[s]++
	if n := len(p.stack); n > 0 {
		p.stack[n-1].child += elapsed
	}
}

// SubsystemStat is one row of a profiler snapshot.
type SubsystemStat struct {
	Name    string  `json:"name"`
	Seconds float64 `json:"seconds"`
	Calls   int64   `json:"calls"`
	// Frac is Seconds over the profiler's total wall time.
	Frac float64 `json:"frac"`
}

// Snapshot is the JSON-exportable profiler state.
type Snapshot struct {
	WallSeconds float64 `json:"wall_seconds"`
	// Subsystems holds the attributed rows, descending by time, zero-time
	// rows omitted.
	Subsystems []SubsystemStat `json:"subsystems"`
	// OtherSeconds is wall time not attributed to any subsystem (setup,
	// report generation, uninstrumented work).
	OtherSeconds float64 `json:"other_seconds"`
}

// Snapshot captures the current attribution (zero value for nil).
func (p *Profiler) Snapshot() Snapshot {
	if p == nil {
		return Snapshot{}
	}
	wall := float64(Now()-p.start) / 1e9
	snap := Snapshot{WallSeconds: wall}
	var attributed float64
	for s := Subsystem(0); s < numSubsystems; s++ {
		if p.calls[s] == 0 {
			continue
		}
		sec := float64(p.nanos[s]) / 1e9
		attributed += sec
		row := SubsystemStat{Name: s.String(), Seconds: sec, Calls: p.calls[s]}
		if wall > 0 {
			row.Frac = sec / wall
		}
		snap.Subsystems = append(snap.Subsystems, row)
	}
	sort.SliceStable(snap.Subsystems, func(i, j int) bool {
		return snap.Subsystems[i].Seconds > snap.Subsystems[j].Seconds
	})
	if other := wall - attributed; other > 0 {
		snap.OtherSeconds = other
	}
	return snap
}

// Seconds returns the attributed time of one subsystem (0 for nil).
func (p *Profiler) Seconds(s Subsystem) float64 {
	if p == nil {
		return 0
	}
	return float64(p.nanos[s]) / 1e9
}

// WriteReport renders the snapshot as an aligned text table.
func (p *Profiler) WriteReport(w io.Writer) error {
	snap := p.Snapshot()
	if _, err := fmt.Fprintf(w, "engine self-profile (wall %.3fs)\n", snap.WallSeconds); err != nil {
		return err
	}
	for _, row := range snap.Subsystems {
		if _, err := fmt.Fprintf(w, "  %-14s %10.3fs  %5.1f%%  %9d calls\n",
			row.Name, row.Seconds, row.Frac*100, row.Calls); err != nil {
			return err
		}
	}
	if snap.OtherSeconds > 0 {
		frac := 0.0
		if snap.WallSeconds > 0 {
			frac = snap.OtherSeconds / snap.WallSeconds
		}
		if _, err := fmt.Fprintf(w, "  %-14s %10.3fs  %5.1f%%\n", "(other)", snap.OtherSeconds, frac*100); err != nil {
			return err
		}
	}
	return nil
}
