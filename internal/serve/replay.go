package serve

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"time"

	"quasar/internal/core"
	"quasar/internal/experiments"
	"quasar/internal/obs"
)

// ReplayOptions configures a journal replay.
type ReplayOptions struct {
	// Sinks are extra trace sinks (e.g. a StreamSink whose file is
	// byte-compared against the live run's trace).
	Sinks []obs.Sink
	// Follow tails a journal that is still being written — the warm-standby
	// mode. Next-entry polls sleep PollInterval (default 10ms) and give up
	// after WaitTimeout (default 30s) without journal progress.
	Follow       bool
	PollInterval time.Duration
	WaitTimeout  time.Duration
	// Snapshot, when set, is verified against the replay-built world at the
	// snapshot's boundary: applied sequence, universe counter, and manager
	// bytes must all match, or Replay fails.
	Snapshot *ServeSnapshot
	// Failover, with Snapshot set, performs a warm failover at the snapshot
	// boundary: a fresh manager is constructed, restored from the snapshot's
	// manager state, and installed — then the replay continues from the
	// journal tail, exactly what a standby does when the primary dies.
	Failover bool
	// SnapshotPath + SnapshotEverySecs mirror the live server's snapshot
	// cadence (no final end-of-run snapshot — that is the live server's warm
	// handoff; the cadence is what tests use to capture mid-run state).
	SnapshotPath      string
	SnapshotEverySecs float64
}

// ReplayResult summarizes a finished replay.
type ReplayResult struct {
	// Config is the world configuration from the journal header.
	Config Config
	// EndAt is the final epoch boundary (the end marker's time, or the
	// first incomplete boundary of a truncated journal).
	EndAt float64
	// Truncated reports a journal without an end marker (a killed run).
	Truncated bool
	// Applied counts applied entries; AppliedSeq is the last applied
	// sequence number.
	Applied    int
	AppliedSeq int
	// SnapshotVerified reports that the Snapshot option matched.
	SnapshotVerified bool
	// FailoverAt is the boundary the warm failover happened at (0 if none).
	FailoverAt float64
	// ManagerState is the final manager snapshot — byte-comparable between
	// replays of the same journal.
	ManagerState []byte
}

// Replay rebuilds a serve run from its journal: the identical world is
// constructed from the header, and every epoch boundary's batch goes through
// the same world step the live pacer runs after each seal, so the replayed
// trace is byte-identical to the live one for any worker count. With Follow it tails a live journal
// as a warm standby; with Snapshot (+Failover) it verifies or restores the
// primary's warm-failover state mid-run.
func Replay(journalPath string, opts ReplayOptions) (*ReplayResult, error) {
	if opts.PollInterval <= 0 {
		opts.PollInterval = 10 * time.Millisecond
	}
	if opts.WaitTimeout <= 0 {
		opts.WaitTimeout = 30 * time.Second
	}
	if opts.Failover && opts.Snapshot == nil {
		return nil, fmt.Errorf("serve: Failover requires a Snapshot")
	}
	r, err := OpenJournal(journalPath)
	if err != nil {
		return nil, err
	}
	defer func() { _ = r.Close() }()
	cfg := r.Config()
	w, err := buildWorld(cfg, opts.Sinks...)
	if err != nil {
		return nil, err
	}
	w.snapPath, w.snapEvery, w.snapDue = opts.SnapshotPath, opts.SnapshotEverySecs, opts.SnapshotEverySecs
	res := &ReplayResult{Config: cfg}
	closed := false
	defer func() {
		if !closed {
			_ = w.Tracer.Close()
		}
	}()

	// readNext polls for the next entry; the deadline advances on every
	// successful read, so a slow producer only times the standby out when
	// it stops making progress entirely.
	deadline := time.Now().Add(opts.WaitTimeout)
	readNext := func() (*Entry, error) {
		for {
			e, ok, err := r.Next()
			if err != nil {
				return nil, err
			}
			if ok {
				deadline = time.Now().Add(opts.WaitTimeout)
				return e, nil
			}
			if !opts.Follow {
				return nil, nil
			}
			if time.Now().After(deadline) {
				return nil, fmt.Errorf("serve: follow timed out waiting for journal %s", journalPath)
			}
			time.Sleep(opts.PollInterval)
		}
	}

	// The boundary accumulates exactly as the live pacer's does — starting
	// at EpochSecs, adding EpochSecs per epoch, including empty ones — so
	// float equality against journaled At values and snapshot SimTime is
	// exact, never approximate.
	epoch := cfg.EpochSecs
	nextB := epoch
	var pending *Entry
	ended, endAt := false, 0.0
	for {
		var batch []Entry
		for !ended {
			e := pending
			pending = nil
			if e == nil {
				var err error
				e, err = readNext()
				if err != nil {
					return nil, err
				}
			}
			if e == nil {
				// EOF without an end marker: a killed run. Apply what is
				// on disk and stop at the current boundary.
				ended, endAt, res.Truncated = true, nextB, true
				break
			}
			if e.Kind == KindEnd {
				ended, endAt = true, e.At
				break
			}
			if e.At > nextB {
				pending = e
				break
			}
			if e.At != nextB { //lint:allow(floatcmp) see above
				return nil, fmt.Errorf("serve: journal entry seq %d at %g is behind boundary %g", e.Seq, e.At, nextB)
			}
			batch = append(batch, *e)
		}
		if _, err := w.step(nextB, batch); err != nil {
			return nil, err
		}
		if opts.Snapshot != nil && nextB == opts.Snapshot.SimTime { //lint:allow(floatcmp) snapshot pins an exact boundary
			if err := verifySnapshot(w, opts.Snapshot); err != nil {
				return nil, err
			}
			res.SnapshotVerified = true
			if opts.Failover {
				if err := failover(w, opts.Snapshot); err != nil {
					return nil, err
				}
				res.FailoverAt = nextB
			}
		}
		if ended && nextB >= endAt {
			break
		}
		nextB += epoch
	}
	res.EndAt, res.Applied, res.AppliedSeq = endAt, w.appliedN, w.appliedSeq
	w.RT.Stop()
	mgr, err := w.Q.MarshalSnapshot()
	if err != nil {
		return nil, err
	}
	res.ManagerState = mgr
	closed = true
	if err := w.Tracer.Close(); err != nil {
		return nil, err
	}
	return res, nil
}

// verifySnapshot checks that the replay-built world at the snapshot's
// boundary byte-matches the state the primary snapshotted — the proof that
// journal replay and live execution converged.
func verifySnapshot(w *world, snap *ServeSnapshot) error {
	if snap.AppliedSeq != w.appliedSeq {
		return fmt.Errorf("serve: snapshot at t=%g applied seq %d, replay applied %d", snap.SimTime, snap.AppliedSeq, w.appliedSeq)
	}
	if snap.NextCounter != w.U.Counter() {
		return fmt.Errorf("serve: snapshot at t=%g universe counter %d, replay counter %d", snap.SimTime, snap.NextCounter, w.U.Counter())
	}
	mgr, err := w.Q.MarshalSnapshot()
	if err != nil {
		return err
	}
	if !bytes.Equal(mgr, snap.Manager) {
		return fmt.Errorf("serve: snapshot at t=%g manager state diverged from replay (%d vs %d bytes)", snap.SimTime, len(snap.Manager), len(mgr))
	}
	return nil
}

// failover installs a fresh manager restored from the snapshot — the
// standby's take-over move. The new manager derives its RNG streams at the
// failover point, so a failover continuation is only comparable against
// another identical failover continuation, not against the uninterrupted
// primary; the failover tests run the take-over twice and byte-compare.
func failover(w *world, snap *ServeSnapshot) error {
	q := core.NewQuasar(w.RT, experiments.QuasarOptions(w.cfg.MaxNodes))
	q.SetTracer(w.Tracer)
	if err := q.UnmarshalSnapshot(snap.Manager); err != nil {
		return fmt.Errorf("serve: restoring manager snapshot: %w", err)
	}
	w.RT.SetManager(q)
	w.Q, w.Mgr = q, q
	return nil
}

// ScriptEntry is one hand-authored admission for BuildJournal: At is the
// earliest sim time it may apply (rounded up to an epoch boundary), and
// exactly one of Submit / Target / Evict selects the kind.
type ScriptEntry struct {
	At     float64
	Submit *SubmitRequest
	// Workload names the target workload for Target updates.
	Workload string
	Target   *TargetUpdate
	// Evict names a workload to evict.
	Evict string
}

// BuildJournal writes a journal by hand — what a live server would have
// produced had these requests arrived at these times — and returns the
// promised workload ID per submit, in script order. The script must be
// sorted by At. Tests use this to drive Replay without a live daemon.
func BuildJournal(path string, cfg Config, endAt float64, script []ScriptEntry) ([]string, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	j := newJournal(f, cfg, 7*cfg.SeedLib+1)
	j.file = f
	if j.err != nil {
		_ = f.Close()
		return nil, j.err
	}
	epoch := cfg.EpochSecs
	boundaryFor := func(at float64) float64 {
		b := math.Ceil(at/epoch) * epoch
		if b < epoch {
			b = epoch
		}
		return b
	}
	var ids []string
	lastB := 0.0
	for i := range script {
		se := &script[i]
		b := boundaryFor(se.At)
		if b < lastB {
			_ = f.Close()
			return nil, fmt.Errorf("serve: script entry %d at %g is out of order", i, se.At)
		}
		lastB = b
		e := Entry{}
		switch {
		case se.Submit != nil:
			if err := se.Submit.validate(); err != nil {
				_ = f.Close()
				return nil, fmt.Errorf("serve: script entry %d: %w", i, err)
			}
			e.Kind, e.Submit = KindSubmit, se.Submit
		case se.Target != nil:
			if err := se.Target.validate(); err != nil {
				_ = f.Close()
				return nil, fmt.Errorf("serve: script entry %d: %w", i, err)
			}
			e.Kind, e.Workload, e.Target = KindTarget, se.Workload, se.Target
		case se.Evict != "":
			e.Kind, e.Workload = KindEvict, se.Evict
		default:
			_ = f.Close()
			return nil, fmt.Errorf("serve: script entry %d selects no kind", i)
		}
		// Route through Admit so stamping (seq, boundary, request ID,
		// promised workload ID) is the same code the live server runs; seal
		// moves the open boundary.
		if _, _, err := j.seal(b); err != nil {
			_ = f.Close()
			return nil, err
		}
		ent, err := j.Admit(e)
		if err != nil {
			_ = f.Close()
			return nil, err
		}
		if ent.Kind == KindSubmit {
			ids = append(ids, ent.Workload)
		}
	}
	endB := boundaryFor(endAt)
	if endB < lastB {
		endB = lastB
	}
	if err := j.end(endB); err != nil {
		return nil, err
	}
	return ids, nil
}
