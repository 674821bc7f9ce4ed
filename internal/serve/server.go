package serve

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"quasar/internal/obs"
)

// Options configures a live serve daemon.
type Options struct {
	// Addr is the listen address (e.g. "127.0.0.1:7717"; ":0" picks a port).
	Addr string
	// Config is the deterministic world configuration, recorded in the
	// journal header.
	Config Config
	// JournalPath is where the admission journal is written (required).
	JournalPath string
	// TracePath, when set, streams the full deterministic trace there
	// (finalized by temp-file rename at shutdown).
	TracePath string
	// SnapshotPath, when set, receives warm-failover snapshots: every
	// SnapshotEverySecs of sim time, plus a final one at shutdown. Each
	// write is atomic (temp + rename).
	SnapshotPath      string
	SnapshotEverySecs float64
	// Warp maps wall clock to sim clock: the pacer holds sim time to
	// Warp seconds of sim per wall second. <= 0 free-runs the engine as
	// fast as it can seal epochs.
	Warp float64
	// HorizonSecs, when positive, ends the run at that sim time; 0 runs
	// until Shutdown.
	HorizonSecs float64
	// RequestLog is the capacity of the bounded request-span ring behind
	// GET /debug/requests (default 1024, minimum 16).
	RequestLog int
}

// Server is the live daemon: an HTTP admission front end over a journal,
// and a pacer goroutine that owns the engine. engineMu serializes the pacer
// against read-only query handlers (/metrics, /statusz, workload listings);
// admission handlers touch only the journal's own lock, so an admission
// never waits for an epoch to finish simulating.
//
// Lock order: engineMu before Journal.mu (the pacer seals the journal while
// holding the engine). Handlers take at most one path through that order.
type Server struct {
	opts Options

	engineMu sync.Mutex
	w        *world
	j        *Journal
	tee      *obs.TeeSink
	tel      *Telemetry

	ln      net.Listener
	httpSrv *http.Server

	stop     chan struct{}
	stopOnce sync.Once

	// Pacer state, engineMu-held (the world holds the applied cursor and
	// the snapshot cadence).
	nextB   float64
	started time.Time
}

// New builds the world, binds the listener, and creates the journal. The
// engine does not advance until Serve.
func New(opts Options) (*Server, error) {
	if opts.JournalPath == "" {
		return nil, fmt.Errorf("serve: JournalPath is required")
	}
	if err := opts.Config.validate(); err != nil {
		return nil, err
	}
	cfg := opts.Config.withDefaults()
	var stream *obs.StreamSink
	var extra []obs.Sink
	if opts.TracePath != "" {
		var err error
		stream, err = obs.NewStreamSink(opts.TracePath)
		if err != nil {
			return nil, err
		}
		extra = append(extra, stream)
	}
	// The tee feeds GET /v1/trace/stream; it observes the same sequenced
	// event stream as the trace file and publishes after every sealed epoch.
	tee := obs.NewTeeSink()
	extra = append(extra, tee)
	fail := func(err error) (*Server, error) {
		if stream != nil {
			stream.Discard()
		}
		return nil, err
	}
	w, err := buildWorld(cfg, extra...)
	if err != nil {
		return fail(err)
	}
	// Bind before creating the journal: creation truncates the file, and a
	// daemon that cannot get its address must not wipe the journal of the
	// one already running there.
	ln, err := net.Listen("tcp", opts.Addr)
	if err != nil {
		return fail(err)
	}
	j, err := CreateJournal(opts.JournalPath, cfg, w.U.Counter()+1)
	if err != nil {
		_ = ln.Close()
		return fail(err)
	}
	s := &Server{
		opts: opts, w: w, j: j, tee: tee, ln: ln,
		stop:  make(chan struct{}),
		nextB: cfg.EpochSecs,
	}
	w.snapPath, w.snapEvery, w.snapDue = opts.SnapshotPath, opts.SnapshotEverySecs, opts.SnapshotEverySecs
	if opts.RequestLog <= 0 {
		opts.RequestLog = 1024
	}
	s.tel = newTelemetry(opts.RequestLog, &j.bytesOut, tee.Subscribers, tee.DroppedTotal)
	j.tel = s.tel
	w.onApplied = func(e *Entry, applyErr string) {
		s.tel.applied(e, telNow()-w.applyStartNS, applyErr)
	}
	s.httpSrv = &http.Server{Handler: s.routes(), ReadHeaderTimeout: 5 * time.Second}
	return s, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Shutdown asks the daemon to stop; Serve then drains in-flight admissions,
// writes the journal end marker and final snapshot, and finalizes the trace.
// Safe to call from any goroutine, any number of times.
func (s *Server) Shutdown() {
	s.stopOnce.Do(func() { close(s.stop) })
}

// Serve runs the daemon until Shutdown, the horizon, or a fatal error: the
// HTTP server on its own goroutine, the pacer on the calling one. It always
// finalizes — even on a pacer error, the trace and journal land on disk.
func (s *Server) Serve() error {
	s.started = time.Now()
	httpErr := make(chan error, 1)
	go func() { httpErr <- s.httpSrv.Serve(s.ln) }()
	paceErr := s.pace()
	// Close the stop channel on every exit path (horizon end, pacer error),
	// not just explicit Shutdown: long-lived handlers — /v1/trace/stream —
	// select on it, and finalize's HTTP drain waits for them.
	s.Shutdown()
	finErr := s.finalize()
	herr := <-httpErr
	if errors.Is(herr, http.ErrServerClosed) {
		herr = nil
	}
	if paceErr != nil {
		return paceErr
	}
	if finErr != nil {
		return finErr
	}
	return herr
}

// pace is the epoch loop: advance one boundary, then sleep until the wall
// clock catches up with the warp target. Sleeps are chopped to 50ms so
// Shutdown is always prompt; in free-run mode an idle epoch (nothing
// admitted) yields briefly instead of spinning the lock.
func (s *Server) pace() error {
	for {
		select {
		case <-s.stop:
			return nil
		default:
		}
		boundary, batch, err := s.advance()
		if err != nil {
			return err
		}
		if s.opts.HorizonSecs > 0 && boundary+1e-9 >= s.opts.HorizonSecs {
			return nil
		}
		if s.opts.Warp <= 0 {
			if batch == 0 {
				time.Sleep(200 * time.Microsecond)
			}
			continue
		}
		target := s.started.Add(time.Duration(boundary / s.opts.Warp * float64(time.Second)))
		// A positive gap here means the epoch finished after its wall-clock
		// target — the pacer is running behind the warp.
		s.tel.pacerLag(time.Since(target))
		for {
			d := time.Until(target)
			if d <= 0 {
				break
			}
			if d > 50*time.Millisecond {
				d = 50 * time.Millisecond
			}
			select {
			case <-s.stop:
				return nil
			case <-time.After(d):
			}
		}
	}
}

// advance runs exactly one epoch under the engine lock and moves the next
// boundary forward.
func (s *Server) advance() (boundary float64, batch int, err error) {
	s.engineMu.Lock()
	defer s.engineMu.Unlock()
	boundary = s.nextB
	batch, err = s.epochStep(boundary)
	if err != nil {
		return boundary, batch, err
	}
	s.nextB += s.w.cfg.EpochSecs
	return boundary, batch, nil
}

// epochStep is the live half of an epoch (engineMu held): seal the journal
// at boundary B — everything admitted since the last boundary, now flushed
// for the standby — then run the world's shared step on the sealed batch and
// publish the epoch's events to stream subscribers.
func (s *Server) epochStep(boundary float64) (int, error) {
	batch, flushNS, err := s.j.seal(boundary + s.w.cfg.EpochSecs)
	if err != nil {
		return 0, err
	}
	s.tel.sealed(batch, telNow(), flushNS)
	snapped, err := s.w.step(boundary, batch)
	s.tee.Publish()
	if snapped {
		s.tel.snapshotLanded()
	}
	return len(batch), err
}

// finalize is the graceful-shutdown path: stop accepting HTTP (draining
// in-flight handlers), run one last epoch so admissions that raced with
// shutdown still apply, write the journal end marker, land the final warm
// snapshot, and close the tracer — the StreamSink's temp-file rename makes
// the trace readable even though the daemon was killed mid-run.
func (s *Server) finalize() error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	herr := s.httpSrv.Shutdown(ctx)

	s.engineMu.Lock()
	defer s.engineMu.Unlock()
	boundary := s.nextB
	_, stepErr := s.epochStep(boundary)
	endErr := s.j.end(boundary)
	var snapErr error
	if s.opts.SnapshotPath != "" {
		snapErr = s.w.writeSnapshot()
		if snapErr == nil {
			s.tel.snapshotLanded()
		}
	}
	s.w.RT.Stop()
	cerr := s.w.Tracer.Close()
	for _, err := range []error{stepErr, endErr, snapErr, cerr, herr} {
		if err != nil {
			return err
		}
	}
	return nil
}

// EndBoundary reports the final epoch boundary after Serve returns — the
// sim time the journal's end marker carries.
func (s *Server) EndBoundary() float64 {
	s.engineMu.Lock()
	defer s.engineMu.Unlock()
	return s.nextB
}

// Applied reports how many journal entries have been applied so far.
func (s *Server) Applied() int {
	s.engineMu.Lock()
	defer s.engineMu.Unlock()
	return s.w.appliedN
}
