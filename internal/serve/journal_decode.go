package serve

import (
	"strconv"

	"quasar/internal/loadgen"
	"quasar/internal/workload"
)

// This file is the journal's canonical-line reader. Journal encodes every
// entry with one json.Encoder, so a line it wrote has exactly one form: the
// struct's keys in declaration order (an omitempty field absent when zero),
// no whitespace, plain strings and JSON numbers. decodeEntry reads that form
// straight into an Entry and declines every other line: a reordered,
// duplicate, unknown or case-variant key, whitespace, null, a string holding
// an escape, a control byte or a byte at or above 0x80, an int written as
// anything but -?(0|[1-9][0-9]*), trailing bytes. JournalReader.Next then
// decodes the line with encoding/json, which stays the definition of what
// every line means: the fast path may accept only lines encoding/json
// accepts, and must then produce the same Entry. FuzzJournalEntryMatchesJSON
// holds it to that, and TestCanonicalReaderAcceptsWhatJournalWrites fails
// when the writer emits a field this reader does not know.

// decodeEntry decodes one journal line in the form Journal writes it, or
// reports false when the line is in any other form.
func decodeEntry(line []byte) (*Entry, bool) {
	d := lineDec{b: line}
	var e Entry
	d.open()
	e.Seq = d.key("seq").int()
	e.At = d.key("at").float()
	e.Kind = d.key("kind").str()
	if d.has("req") {
		e.Req = d.str()
	}
	if d.has("workload") {
		e.Workload = d.str()
	}
	if d.has("submit") {
		e.Submit = d.submit()
	}
	if d.has("target") {
		e.Target = d.target()
	}
	d.close()
	if d.bad || d.i != len(d.b) {
		return nil, false
	}
	return &e, true
}

func (d *lineDec) submit() *SubmitRequest {
	s := &SubmitRequest{}
	d.open()
	s.Type = d.key("type").str()
	// The writer always emits family; a line without it means -1, which
	// only the fallback's default supplies.
	s.Family = d.key("family").int()
	if d.has("best_effort") {
		s.BestEffort = d.bool()
	}
	d.optFloat("target_slack", &s.TargetSlack)
	d.optFloat("qps", &s.QPS)
	d.optFloat("latency_us", &s.LatencyUS)
	if d.has("max_nodes") {
		s.MaxNodes = d.int()
	}
	d.optFloat("max_cost_per_hour", &s.MaxCostPerHour)
	if d.has("dataset") {
		s.Dataset = d.dataset()
	}
	if d.has("load") {
		s.Load = d.load()
	}
	d.close()
	return s
}

func (d *lineDec) dataset() *workload.Dataset {
	ds := &workload.Dataset{}
	d.open()
	ds.Name = d.key("Name").str()
	ds.SizeGB = d.key("SizeGB").float()
	ds.WorkMult = d.key("WorkMult").float()
	ds.MemMult = d.key("MemMult").float()
	d.close()
	return ds
}

func (d *lineDec) load() *loadgen.PatternSpec {
	p := &loadgen.PatternSpec{}
	d.open()
	p.Kind = d.key("kind").str()
	d.optFloat("qps", &p.QPS)
	d.optFloat("min", &p.Min)
	d.optFloat("max", &p.Max)
	d.optFloat("period", &p.Period)
	d.optFloat("phase", &p.Phase)
	d.optFloat("base", &p.Base)
	d.optFloat("peak", &p.Peak)
	d.optFloat("start", &p.Start)
	d.optFloat("duration", &p.Duration)
	d.optFloat("ramp_secs", &p.RampSecs)
	d.optFloat("peak_hour", &p.PeakHour)
	d.close()
	return p
}

func (d *lineDec) target() *TargetUpdate {
	t := &TargetUpdate{}
	d.open()
	d.optFloat("completion_secs", &t.CompletionSecs)
	d.optFloat("qps", &t.QPS)
	d.optFloat("latency_us", &t.LatencyUS)
	d.optFloat("ips", &t.IPS)
	d.close()
	return t
}

// lineDec is a cursor over one canonical line. The first mismatch sets bad,
// after which every method is a no-op returning zero values, so a decoder
// reads straight through and checks bad once at the end.
type lineDec struct {
	b   []byte
	i   int
	bad bool
	// first is set between an object's '{' and its first member, the one
	// member not preceded by a comma. A nested object is always a member's
	// value, so when it closes its parent has a member and first is false.
	first bool
}

func (d *lineDec) lit(s string) bool {
	if d.bad || len(d.b)-d.i < len(s) || string(d.b[d.i:d.i+len(s)]) != s {
		return false
	}
	d.i += len(s)
	return true
}

func (d *lineDec) open() {
	d.bad = d.bad || !d.lit("{")
	d.first = true
}

func (d *lineDec) close() {
	d.bad = d.bad || !d.lit("}")
	d.first = false
}

// has consumes member key name (with its separating comma and colon) when it
// is next, and reports whether it was.
func (d *lineDec) has(name string) bool {
	if d.bad {
		return false
	}
	i := d.i
	if !d.first && !d.lit(",") {
		return false
	}
	if d.lit(`"`) && d.lit(name) && d.lit(`":`) {
		d.first = false
		return true
	}
	d.i = i
	return false
}

// key consumes required member key name; the value follows.
func (d *lineDec) key(name string) *lineDec {
	d.bad = d.bad || !d.has(name)
	return d
}

func (d *lineDec) optFloat(name string, v *float64) {
	if d.has(name) {
		*v = d.float()
	}
}

// str consumes a string without escapes and returns its contents.
func (d *lineDec) str() string {
	if d.bad || d.i >= len(d.b) || d.b[d.i] != '"' {
		d.bad = true
		return ""
	}
	for j := d.i + 1; j < len(d.b); j++ {
		switch c := d.b[j]; {
		case c == '"':
			s := string(d.b[d.i+1 : j])
			d.i = j + 1
			return s
		case c < 0x20 || c == '\\' || c >= 0x80:
			d.bad = true
			return ""
		}
	}
	d.bad = true
	return ""
}

func (d *lineDec) bool() bool {
	switch {
	case d.lit("true"):
		return true
	case d.lit("false"):
		return false
	}
	d.bad = true
	return false
}

// number consumes one token of the JSON number grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?. strconv is called only on
// what this accepts: ParseFloat alone would also take "Inf", hex, '_' and a
// leading '+'.
func (d *lineDec) number() []byte {
	if d.bad {
		return nil
	}
	b, i := d.b, d.i
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(b, i+1)
	default:
		d.bad = true
		return nil
	}
	if i < len(b) && b[i] == '.' {
		j := digits(b, i+1)
		if j == i+1 {
			d.bad = true
			return nil
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digits(b, i)
		if j == i {
			d.bad = true
			return nil
		}
		i = j
	}
	num := b[d.i:i]
	d.i = i
	return num
}

func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// float parses a number as encoding/json does for a float64 field; out of
// range is declined (encoding/json errors on it).
func (d *lineDec) float() float64 {
	num := d.number()
	if d.bad {
		return 0
	}
	f, err := strconv.ParseFloat(string(num), 64)
	if err != nil {
		d.bad = true
	}
	return f
}

// int parses a number as encoding/json does for an int field. On a JSON
// number, base-10 ParseInt fails exactly where encoding/json errors: on a
// fraction or exponent ("2.0", "1e3") and on overflow. All are declined.
func (d *lineDec) int() int {
	num := d.number()
	if d.bad {
		return 0
	}
	n, err := strconv.ParseInt(string(num), 10, 0)
	if err != nil {
		d.bad = true
	}
	return int(n)
}
