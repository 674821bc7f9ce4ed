// Package serve is the live front end of the simulator: a long-lived daemon
// that free-runs (or time-warps) the deterministic engine against the wall
// clock while accepting workload submissions, target updates, and evictions
// over HTTP.
//
// The determinism boundary is the admission journal. HTTP handlers never
// touch the engine; they append a journal entry stamped with the next epoch
// boundary of the simulation clock and return immediately. The pacer — the
// single goroutine that owns the engine — seals the journal at every epoch
// boundary B, schedules the sealed batch at B in sequence order, and runs the
// engine to B. Because the engine's event sequencing depends only on the
// order of Schedule calls, a replay that performs the identical per-boundary
// schedules reproduces the run byte for byte: same journal + same seed ⇒
// byte-identical trace, regardless of wall-clock arrival jitter or whether
// the run was live or offline.
//
// Failover rides the same journal: a standby tails it (Replay with Follow),
// rebuilding the identical world, and can restore the manager from the
// primary's latest snapshot plus the journal tail, resuming mid-run with a
// byte-identical continuation.
package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
	"sync"
	"sync/atomic"

	"quasar/internal/experiments"
	"quasar/internal/loadgen"
	"quasar/internal/workload"
)

// errJournalClosed is precomputed: admission rejection sits on the journal
// hot path, where formatting would allocate per request.
var errJournalClosed = errors.New("serve: journal closed")

// Journal entry kinds.
const (
	// KindSubmit admits a new workload.
	KindSubmit = "submit"
	// KindTarget replaces a running workload's performance target.
	KindTarget = "target"
	// KindEvict removes a best-effort workload.
	KindEvict = "evict"
	// KindEnd marks the final epoch boundary of a finished run.
	KindEnd = "end"
)

// journalMagic is the header line's format tag.
const journalMagic = "quasar-serve-journal-v1"

// journalHeader is line 1 of every journal: the format tag plus the full
// world configuration, so a journal file is a self-contained description of
// the run — Replay rebuilds the identical world from the header alone.
type journalHeader struct {
	Journal string `json:"journal"`
	Config  Config `json:"config"`
}

// SubmitRequest is the admission wire shape of one workload, mirroring
// workload.Spec with the type spelled by name. It is both the HTTP request
// body of POST /v1/submit and the journaled form of the admission.
type SubmitRequest struct {
	// Type is the workload kind by name: hadoop, spark, storm, memcached,
	// cassandra, webserver, single-node.
	Type string `json:"type"`
	// Family optionally pins the genome family (-1, the default when
	// omitted, picks deterministically at apply time).
	Family int `json:"family"`
	// BestEffort marks evictable filler with no target.
	BestEffort bool `json:"best_effort,omitempty"`
	// TargetSlack relaxes the auto-derived target (1.0 = oracle-best).
	TargetSlack float64 `json:"target_slack,omitempty"`
	// QPS / LatencyUS override the auto-derived latency-service target.
	QPS       float64 `json:"qps,omitempty"`
	LatencyUS float64 `json:"latency_us,omitempty"`
	// MaxNodes bounds the target oracle's scale-out sweep.
	MaxNodes int `json:"max_nodes,omitempty"`
	// MaxCostPerHour optionally caps the allocation's resource cost.
	MaxCostPerHour float64 `json:"max_cost_per_hour,omitempty"`
	// Dataset optionally pins the input dataset.
	Dataset *workload.Dataset `json:"dataset,omitempty"`
	// Load optionally describes the offered-load curve for latency services
	// (default: a fluctuating curve between 40% and 90% of the target QPS).
	Load *loadgen.PatternSpec `json:"load,omitempty"`
}

// UnmarshalJSON decodes a request with Family defaulting to -1 ("pick for
// me"), and rejects unknown fields so a typo'd knob fails loudly at admission
// instead of silently journaling a half-understood request.
func (s *SubmitRequest) UnmarshalJSON(b []byte) error {
	type alias SubmitRequest
	a := alias{Family: -1}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&a); err != nil {
		return err
	}
	*s = SubmitRequest(a)
	return nil
}

// typeByName maps the wire spelling back to the workload type.
var typeByName = func() map[string]workload.Type {
	m := make(map[string]workload.Type, int(workload.NumTypes))
	for t := workload.Type(0); t < workload.NumTypes; t++ {
		m[t.String()] = t
	}
	return m
}()

// validate checks everything that can be checked statelessly at admission
// time, so the journal only ever carries well-formed requests.
func (s *SubmitRequest) validate() error {
	if _, ok := typeByName[s.Type]; !ok {
		return fmt.Errorf("serve: unknown workload type %q", s.Type)
	}
	if s.Family < -1 || s.Family >= experiments.UniverseFamilies {
		return fmt.Errorf("serve: family must be -1 (auto) or a pool index below %d, got %d", experiments.UniverseFamilies, s.Family)
	}
	if s.TargetSlack < 0 || s.QPS < 0 || s.LatencyUS < 0 || s.MaxNodes < 0 || s.MaxCostPerHour < 0 {
		return fmt.Errorf("serve: negative sizing field in submit request")
	}
	if s.Load != nil {
		if _, err := s.Load.Build(); err != nil {
			return err
		}
	}
	return nil
}

// TargetUpdate is a merge patch over a workload's current performance target:
// zero fields keep their current value, the class never changes.
type TargetUpdate struct {
	CompletionSecs float64 `json:"completion_secs,omitempty"`
	QPS            float64 `json:"qps,omitempty"`
	LatencyUS      float64 `json:"latency_us,omitempty"`
	IPS            float64 `json:"ips,omitempty"`
}

// validate requires at least one field and no negatives.
func (t *TargetUpdate) validate() error {
	if t.CompletionSecs < 0 || t.QPS < 0 || t.LatencyUS < 0 || t.IPS < 0 {
		return fmt.Errorf("serve: negative field in target update")
	}
	if t.CompletionSecs == 0 && t.QPS == 0 && t.LatencyUS == 0 && t.IPS == 0 { //lint:allow(floatcmp) zero means "field not set"
		return fmt.Errorf("serve: target update sets no fields")
	}
	return nil
}

// Entry is one journaled admission. Seq is the journal sequence number
// (from 1, contiguous), At the epoch boundary the entry applies at, and
// Workload the deterministic workload ID the admission front end promised —
// predicted for submits, caller-named for targets and evictions. Req is the
// request ID minted at admission; journaling it is what makes the wall-plane
// span ↔ sim-plane decision linkage reproducible — a replay reads the same
// Req and emits it on the same serve.apply instant.
type Entry struct {
	Seq      int            `json:"seq"`
	At       float64        `json:"at"`
	Kind     string         `json:"kind"`
	Req      string         `json:"req,omitempty"`
	Workload string         `json:"workload,omitempty"`
	Submit   *SubmitRequest `json:"submit,omitempty"`
	Target   *TargetUpdate  `json:"target,omitempty"`
}

// predictID mints the workload ID the universe will assign to the ordinal-th
// instance — the same format string workload.Universe.New uses, which is the
// contract letting admission promise IDs before the apply point runs.
func predictID(tp workload.Type, ordinal int) string {
	return fmt.Sprintf("%s-%04d", tp, ordinal)
}

// Journal is the admission log writer. Admit appends entries stamped with
// the currently open epoch boundary; seal closes a boundary, hands the
// sealed batch to the pacer, and flushes — the group-commit point that makes
// the file tailable by a standby. The journal writes directly to its
// destination path (no temp-and-rename): a standby must be able to follow it
// while the primary is alive.
type Journal struct {
	mu          sync.Mutex
	file        *os.File // nil for writer-backed journals
	bw          *bufio.Writer
	enc         *json.Encoder
	err         error
	closed      bool
	nextSeq     int
	open        float64 // epoch boundary currently accepting admissions
	nextOrdinal int     // universe counter the next submit will consume
	pending     []Entry

	// bytesOut counts bytes reaching the destination writer (advanced at
	// flush); atomic so the journal_bytes gauge never takes j.mu.
	bytesOut atomic.Int64
	// tel, when set, receives wall-clock admission timings. It is recorded
	// into only AFTER j.mu is released — Telemetry.mu is a strict leaf lock.
	tel *Telemetry
}

// countingWriter advances an atomic byte counter as it forwards writes.
type countingWriter struct {
	w io.Writer
	n *atomic.Int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n.Add(int64(n))
	return n, err
}

// CreateJournal creates the journal file at path, writes and flushes the
// header, and opens the first epoch boundary. nextOrdinal is the universe's
// Counter()+1 after world construction (library seeding consumes ordinals
// before any admission can). A file already at path is refused, never
// truncated: it is the record of an earlier run, which -replay recovers.
func CreateJournal(path string, cfg Config, nextOrdinal int) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o666)
	if errors.Is(err, os.ErrExist) {
		return nil, fmt.Errorf("serve: journal %s: %w; -replay it or remove it", path, os.ErrExist)
	}
	if err != nil {
		return nil, fmt.Errorf("serve: creating journal: %w", err)
	}
	j := newJournal(f, cfg, nextOrdinal)
	j.file = f
	if j.err != nil {
		_ = f.Close()
		return nil, j.err
	}
	return j, nil
}

// NewJournalWriter opens a journal over an arbitrary writer — tests and the
// admission allocation probe, which journals to io.Discard.
func NewJournalWriter(w io.Writer, cfg Config, nextOrdinal int) *Journal {
	return newJournal(w, cfg, nextOrdinal)
}

func newJournal(w io.Writer, cfg Config, nextOrdinal int) *Journal {
	cfg = cfg.withDefaults()
	j := &Journal{nextOrdinal: nextOrdinal, open: cfg.EpochSecs}
	j.bw = bufio.NewWriterSize(&countingWriter{w: w, n: &j.bytesOut}, 1<<16)
	j.enc = json.NewEncoder(j.bw)
	if err := j.enc.Encode(&journalHeader{Journal: journalMagic, Config: cfg}); err != nil {
		j.err = err
		return j
	}
	j.err = j.bw.Flush() // header visible immediately: a standby can attach right away
	return j
}

// Admit appends one entry, stamping its sequence number, the open epoch
// boundary, the request ID, and — for submits — the promised workload ID.
// The entry is encoded under the lock so file order always equals sequence
// order; it becomes durable (flushed) at the next seal. The returned entry
// carries the stamps for the HTTP response. When telemetry is attached, the
// lock wait and hold are measured here and recorded after the lock is
// released (Telemetry.mu is a leaf lock; see telemetry.go).
func (j *Journal) Admit(e Entry) (Entry, error) {
	tel := j.tel
	var arriveNS int64
	if tel != nil {
		arriveNS = telNow()
	}
	j.mu.Lock()
	var lockedNS int64
	if tel != nil {
		lockedNS = telNow()
	}
	ent, err := j.admitLocked(e)
	j.mu.Unlock()
	if tel != nil && err == nil {
		tel.admitted(&ent, arriveNS, lockedNS, telNow())
	}
	return ent, err
}

// admitLocked is Admit's stamping and encoding body (j.mu held).
func (j *Journal) admitLocked(e Entry) (Entry, error) {
	if j.closed {
		return e, errJournalClosed
	}
	if j.err != nil {
		return e, j.err
	}
	j.nextSeq++
	e.Seq = j.nextSeq
	e.At = j.open
	e.Req = requestID(e.Seq)
	if e.Kind == KindSubmit {
		e.Workload = predictID(typeByName[e.Submit.Type], j.nextOrdinal)
		j.nextOrdinal++
	}
	if err := j.enc.Encode(&e); err != nil {
		j.err = err
		return e, err
	}
	j.pending = append(j.pending, e)
	return e, nil
}

// seal closes the open boundary: it returns the batch admitted against it,
// opens nextOpen for subsequent admissions, and flushes the file so a
// tailing standby sees every entry of the sealed boundary (group commit).
// flushNS is the wall-clock duration of the group-commit flush when
// telemetry is attached (0 otherwise).
func (j *Journal) seal(nextOpen float64) (batch []Entry, flushNS int64, err error) {
	tel := j.tel
	j.mu.Lock()
	defer j.mu.Unlock()
	batch = j.pending
	j.pending = j.pending[len(j.pending):]
	j.open = nextOpen
	var t0 int64
	if tel != nil {
		t0 = telNow()
	}
	if err := j.bw.Flush(); err != nil && j.err == nil {
		j.err = err
	}
	if tel != nil {
		flushNS = telNow() - t0
	}
	return batch, flushNS, j.err
}

// end writes the end marker at the final boundary, flushes, and closes the
// file. Idempotent.
func (j *Journal) end(at float64) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return j.err
	}
	j.closed = true
	j.nextSeq++
	if err := j.enc.Encode(&Entry{Seq: j.nextSeq, At: at, Kind: KindEnd}); err != nil && j.err == nil {
		j.err = err
	}
	if err := j.bw.Flush(); err != nil && j.err == nil {
		j.err = err
	}
	if j.file != nil {
		if err := j.file.Close(); err != nil && j.err == nil {
			j.err = err
		}
	}
	return j.err
}

// State reports the last admitted sequence number and the open boundary,
// for /statusz.
func (j *Journal) State() (seq int, open float64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.nextSeq, j.open
}

// JournalReader reads a journal incrementally, tolerating a file that is
// still being written: Next returns ok=false at a clean EOF (no complete
// line available yet), which is the poll point for Follow-mode tailing.
type JournalReader struct {
	f   *os.File
	cfg Config
	// buf[off:] is read from the file and not yet returned as a line.
	buf []byte
	off int
}

// OpenJournal opens a journal and parses its header line, which must already
// be on disk (the writer flushes it at creation).
func OpenJournal(path string) (*JournalReader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("serve: opening journal: %w", err)
	}
	r := &JournalReader{f: f}
	line, ok, err := r.nextLine()
	if err == nil && !ok {
		err = fmt.Errorf("serve: journal %s has no header line", path)
	}
	if err != nil {
		_ = f.Close()
		return nil, err
	}
	var h journalHeader
	if err := json.Unmarshal(line, &h); err != nil || h.Journal != journalMagic {
		_ = f.Close()
		return nil, fmt.Errorf("serve: %s is not a serve journal", path)
	}
	if err := h.Config.validate(); err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("serve: journal %s: %w", path, err)
	}
	r.cfg = h.Config.withDefaults()
	return r, nil
}

// Config returns the world configuration recorded in the header.
func (r *JournalReader) Config() Config { return r.cfg }

// Close releases the file.
func (r *JournalReader) Close() error { return r.f.Close() }

// nextLine returns the next complete newline-terminated line, or ok=false
// when none is available yet (clean EOF — the file may still grow). The line
// aliases the reader's buffer and is valid until the next call.
func (r *JournalReader) nextLine() ([]byte, bool, error) {
	for {
		if i := bytes.IndexByte(r.buf[r.off:], '\n'); i >= 0 {
			line := r.buf[r.off : r.off+i]
			r.off += i + 1
			if len(bytes.TrimSpace(line)) == 0 {
				continue
			}
			return line, true, nil
		}
		// No complete line is buffered: move the partial tail to the front
		// and read into the spare capacity behind it, growing only when a
		// single line fills the whole buffer.
		n := copy(r.buf, r.buf[r.off:])
		r.buf, r.off = r.buf[:n], 0
		if n == cap(r.buf) {
			r.buf = slices.Grow(r.buf, max(n, 64<<10))
		}
		m, err := r.f.Read(r.buf[n:cap(r.buf)])
		if m > 0 {
			r.buf = r.buf[:n+m]
			continue
		}
		if err == nil || err == io.EOF {
			return nil, false, nil
		}
		return nil, false, err
	}
}

// Next returns the next journal entry. ok=false with a nil error means the
// end of the file was reached without a complete entry — poll again when
// tailing a live journal, or treat as truncation for a finished one. A line
// in the form Journal writes is read by decodeEntry; any other line, and
// every error, is encoding/json's.
func (r *JournalReader) Next() (*Entry, bool, error) {
	line, ok, err := r.nextLine()
	if err != nil || !ok {
		return nil, false, err
	}
	if e, ok := decodeEntry(line); ok {
		return e, true, nil
	}
	var e Entry
	if err := json.Unmarshal(line, &e); err != nil {
		return nil, false, fmt.Errorf("serve: corrupt journal entry: %w", err)
	}
	return &e, true, nil
}
