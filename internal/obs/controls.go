package obs

import (
	"sort"
)

// Trace controls are the deterministic volume knobs of the pipeline: what a
// run records is a pure function of the event fields and the configured
// controls, never of wall-clock time, RNG draws, or worker count. A filtered
// run therefore still satisfies the byte-identity contract — any two runs of
// the same scenario with the same controls produce the same bytes — and the
// controls themselves are recorded in the trace header so a reader knows
// exactly what was dropped and why.

// Level orders event verbosity. The zero value (LevelUnset) means "no
// filtering configured" and records everything, so a zero Controls behaves
// exactly like the pre-pipeline tracer.
type Level int

const (
	// LevelUnset is the zero value: treated as LevelDebug (record all).
	LevelUnset Level = iota
	// LevelOff drops every event of the category.
	LevelOff
	// LevelLifecycle keeps spans and plain instants (submits, placements,
	// QoS edges) but drops decision payloads and counters.
	LevelLifecycle
	// LevelDecision additionally keeps full decision-explainability payloads
	// (candidate rankings, admit/adjust records).
	LevelDecision
	// LevelDebug keeps everything, counters included.
	LevelDebug
)

// levelNames maps levels to their header spelling.
var levelNames = map[Level]string{
	LevelUnset: "debug", LevelOff: "off", LevelLifecycle: "lifecycle",
	LevelDecision: "decision", LevelDebug: "debug",
}

// ParseLevel resolves a header/flag spelling to a Level.
func ParseLevel(s string) (Level, bool) {
	switch s {
	case "off":
		return LevelOff, true
	case "lifecycle":
		return LevelLifecycle, true
	case "decision":
		return LevelDecision, true
	case "debug", "":
		return LevelDebug, true
	}
	return LevelUnset, false
}

func (l Level) String() string { return levelNames[l] }

// Controls configures deterministic trace reduction. The zero value records
// everything.
type Controls struct {
	// Default is the level applied to categories without an explicit entry
	// in Category. LevelUnset records everything.
	Default Level
	// Category overrides the level per event category ("sched", "runtime",
	// "slo", ...).
	Category map[string]Level
	// SampleWorkloads keeps this fraction of workloads; 0 or >= 1 keeps all.
	// Selection is by FNV-1a hash of the workload ID — RNG-free, so the kept
	// subset is identical for every run, seed, and worker count. Events that
	// carry no workload identity (cluster counters, server fault events) are
	// always kept.
	SampleWorkloads float64
	// TopK truncates ScheduleDecision candidate rankings to the K best
	// (picked servers are always retained); 0 keeps the full ranking. The
	// dropped count is recorded on the decision payload.
	TopK int
}

// active reports whether any control deviates from record-everything.
func (c *Controls) active() bool {
	if c.Default != LevelUnset && c.Default != LevelDebug {
		return true
	}
	for _, l := range c.Category {
		if l != LevelUnset && l != LevelDebug {
			return true
		}
	}
	return (c.SampleWorkloads > 0 && c.SampleWorkloads < 1) || c.TopK > 0
}

// levelFor resolves the effective level of a category.
func (c *Controls) levelFor(cat string) Level {
	if l, ok := c.Category[cat]; ok && l != LevelUnset {
		return l
	}
	if c.Default != LevelUnset {
		return c.Default
	}
	return LevelDebug
}

// eventLevel assigns the intrinsic verbosity of an event: counters are debug
// detail, instants carrying a structured decision payload are decision
// detail, everything else is lifecycle.
func eventLevel(phase byte, args []Arg) Level {
	if phase == PhaseCounter {
		return LevelDebug
	}
	for i := range args {
		switch args[i].Val.(type) {
		case ScheduleDecision, AdmitDecision, AdjustDecision:
			return LevelDecision
		}
	}
	return LevelLifecycle
}

// eventWorkload extracts the workload identity an event is about, or "" when
// it has none: the workload track suffix, the async placement-span pair ID
// ("workload@server"), or the subject of a decision payload.
func eventWorkload(phase byte, id, track string, args []Arg) string {
	const wprefix = "workload/"
	if len(track) > len(wprefix) && track[:len(wprefix)] == wprefix {
		return track[len(wprefix):]
	}
	if (phase == PhaseAsyncBegin || phase == PhaseAsyncEnd) && id != "" {
		for i := 0; i < len(id); i++ {
			if id[i] == '@' {
				return id[:i]
			}
		}
	}
	for i := range args {
		switch d := args[i].Val.(type) {
		case ScheduleDecision:
			return d.Workload
		case AdmitDecision:
			return d.Workload
		case AdjustDecision:
			return d.Workload
		}
	}
	return ""
}

// SampleKeep reports whether hash-based sampling keeps a workload at the
// given fraction. It is exported so tests and readers can reproduce the kept
// subset from the header alone.
func SampleKeep(workloadID string, frac float64) bool {
	if frac <= 0 || frac >= 1 {
		return true
	}
	// FNV-1a, mapped to [0,1) with 53-bit precision: pure integer hashing,
	// so the verdict is identical across platforms and runs.
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(workloadID); i++ {
		h ^= uint64(workloadID[i])
		h *= prime64
	}
	return float64(h>>11)/float64(1<<53) < frac
}

// keep applies level filtering and workload sampling to one prospective
// event.
func (c *Controls) keep(phase byte, id, track, cat string, args []Arg) bool {
	lvl := c.levelFor(cat)
	if lvl == LevelOff || eventLevel(phase, args) > lvl {
		return false
	}
	if c.SampleWorkloads > 0 && c.SampleWorkloads < 1 {
		if w := eventWorkload(phase, id, track, args); w != "" && !SampleKeep(w, c.SampleWorkloads) {
			return false
		}
	}
	return true
}

// truncate applies TopK candidate truncation, returning args unchanged when
// nothing applies. Picked candidates beyond the cut survive so placement
// explanations still resolve every chosen server.
//
//quasar:cold runs only for decision-level events when TopK is configured
func (c *Controls) truncate(args []Arg) []Arg {
	if c.TopK <= 0 {
		return args
	}
	for i := range args {
		d, ok := args[i].Val.(ScheduleDecision)
		if !ok || len(d.Candidates) <= c.TopK {
			continue
		}
		kept := make([]Candidate, 0, c.TopK+len(d.Picks))
		kept = append(kept, d.Candidates[:c.TopK]...)
		for _, cand := range d.Candidates[c.TopK:] {
			if cand.Picked {
				kept = append(kept, cand)
			}
		}
		// Accumulate rather than assign: an emitter that pre-trimmed against
		// the same TopK (sched.emitDecision) has already recorded its drops.
		d.CandidatesDropped += len(d.Candidates) - len(kept)
		d.Candidates = kept
		out := make([]Arg, len(args))
		copy(out, args)
		out[i] = Arg{Key: args[i].Key, Val: d}
		return out
	}
	return args
}

// categoryLevel is one per-category entry of the trace header, emitted in
// sorted-category order so the header is byte-stable.
type categoryLevel struct {
	Cat   string `json:"cat"`
	Level string `json:"level"`
}

// headerMagic identifies a Quasar trace header line.
const headerMagic = "quasar-obs"

// Header is the first line of a JSONL trace: the format version and the
// controls the run recorded under, so a reader can report what was dropped.
// It carries no "seq" field, which is how pre-header readers (and the metric
// line skip in ReadJSONL) pass over it.
type Header struct {
	Trace   string          `json:"trace"`
	Version int             `json:"version"`
	Level   string          `json:"level,omitempty"`
	Levels  []categoryLevel `json:"levels,omitempty"`
	Sample  float64         `json:"sample_workloads,omitempty"`
	TopK    int             `json:"top_k,omitempty"`
	Sampled bool            `json:"sampled,omitempty"`
}

// defaultHeader is the record-everything header a standalone sink writes when
// it finalizes without ever having seen a tracer's Start.
func defaultHeader() *Header {
	h := (&Controls{}).header()
	return &h
}

// header renders the controls into their wire form.
func (c *Controls) header() Header {
	h := Header{Trace: headerMagic, Version: 2}
	if c.Default != LevelUnset && c.Default != LevelDebug {
		h.Level = c.Default.String()
	}
	cats := make([]string, 0, len(c.Category))
	for cat, l := range c.Category {
		if l != LevelUnset {
			cats = append(cats, cat)
		}
	}
	sort.Strings(cats)
	for _, cat := range cats {
		h.Levels = append(h.Levels, categoryLevel{Cat: cat, Level: c.Category[cat].String()})
	}
	if c.SampleWorkloads > 0 && c.SampleWorkloads < 1 {
		h.Sample = c.SampleWorkloads
		h.Sampled = true
	}
	h.TopK = c.TopK
	return h
}
