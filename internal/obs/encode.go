package obs

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
)

// This file is the trace's event-line encoder. The bytes of an event line are
// defined as what encoding/json produced for the line's DTO at PR 14; the
// appenders below write those bytes straight into a caller-owned buffer — no
// reflection, no intermediate copies — and are pinned to that definition by
// the reference encoder kept in export_reference_test.go, the fuzz target next
// to it, and the golden file under testdata/. Every sink and exporter that
// writes event lines calls appendEventLine, so streamed = buffered = tee
// bytes. Header and registry metric lines (a handful per trace) stay on
// encoding/json.

// appendEventLine appends one event line, trailing newline included: the
// fixed envelope in wire order (seq, t, ph, [id], cat, name, track, args).
// On error nothing is appended: dst comes back at its original length, so a
// failed event never leaves a partial line in a sink's buffer.
func appendEventLine(dst []byte, ev *Event) ([]byte, error) {
	start := len(dst)
	dst = append(dst, `{"seq":`...)
	dst = strconv.AppendUint(dst, ev.Seq, 10)
	dst = append(dst, `,"t":`...)
	dst, err := appendFloat(dst, ev.Time)
	if err != nil {
		return dst[:start], err
	}
	dst = append(dst, `,"ph":`...)
	if plainByte(ev.Phase) {
		dst = append(dst, '"', ev.Phase, '"')
	} else {
		dst = appendString(dst, string(rune(ev.Phase)))
	}
	if ev.ID != "" {
		dst = append(dst, `,"id":`...)
		dst = appendString(dst, ev.ID)
	}
	dst = append(dst, `,"cat":`...)
	dst = appendString(dst, ev.Cat)
	dst = append(dst, `,"name":`...)
	dst = appendString(dst, ev.Name)
	dst = append(dst, `,"track":`...)
	dst = appendString(dst, ev.Track)
	dst = append(dst, `,"args":`...)
	if dst, err = appendArgs(dst, ev.Args); err != nil {
		return dst[:start], err
	}
	return append(dst, '}', '\n'), nil
}

// appendArgs appends an ordered Arg slice as a JSON object, preserving the
// emission-site key order ("{}" for nil and empty alike).
func appendArgs(dst []byte, args []Arg) ([]byte, error) {
	dst = append(dst, '{')
	for i := range args {
		dst = appendSep(dst, i)
		dst = appendString(dst, args[i].Key)
		dst = append(dst, ':')
		var err error
		if dst, err = appendValue(dst, args[i].Val); err != nil {
			return dst, fmt.Errorf("obs: arg %q: %w", args[i].Key, err)
		}
	}
	return append(dst, '}'), nil
}

// appendSep appends the separator every array element and object member but
// the first is preceded by.
func appendSep(dst []byte, i int) []byte {
	if i > 0 {
		return append(dst, ',')
	}
	return dst
}

// appendValue appends one payload value: the scalar kinds emission sites
// pass, the three decision payloads, and encoding/json for anything else.
func appendValue(dst []byte, v any) ([]byte, error) {
	switch x := v.(type) {
	case string:
		return appendString(dst, x), nil
	case int:
		return strconv.AppendInt(dst, int64(x), 10), nil
	case int64:
		return strconv.AppendInt(dst, x, 10), nil
	case uint64:
		return strconv.AppendUint(dst, x, 10), nil
	case float64:
		// JSON has no literal for non-finite floats; a crashed server's
		// infinite p99 still has to export, so a top-level one renders as
		// the string %g prints: "+Inf", "-Inf", "NaN".
		if math.IsInf(x, 0) || math.IsNaN(x) {
			dst = append(dst, '"')
			dst = strconv.AppendFloat(dst, x, 'g', -1, 64)
			return append(dst, '"'), nil
		}
		return appendFloat(dst, x)
	case bool:
		return strconv.AppendBool(dst, x), nil
	case []string:
		return appendStrings(dst, x), nil
	case []float64:
		return appendFloats(dst, x)
	case ScheduleDecision:
		return appendScheduleDecision(dst, &x)
	case AdmitDecision:
		return appendAdmitDecision(dst, &x)
	case AdjustDecision:
		return appendAdjustDecision(dst, &x)
	}
	// Fallback for payload types no emission site in the repo passes today:
	// json.Marshal's output is compact and HTML-escaped, exactly what the line
	// carried when the whole event went through encoding/json.
	b, err := json.Marshal(v)
	if err != nil {
		return dst, err
	}
	return append(dst, b...), nil
}

// appendFloat appends a finite float by encoding/json's exact rule: shortest
// 'f' form, or 'e' form below 1e-6 and from 1e21 with a two-digit negative
// exponent's leading zero dropped (e-09 -> e-9). A non-finite value is the
// error encoding/json itself reports for it.
func appendFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		_, err := json.Marshal(f)
		return dst, err
	}
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) { //lint:allow(floatcmp) encoding/json's own exact test
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}

// plainByte reports whether c stands for itself inside a JSON string as
// encoding/json writes one: printable ASCII other than the quote, the
// backslash and the three characters HTML escaping rewrites.
func plainByte(c byte) bool {
	return c >= 0x20 && c < 0x7f && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
}

// appendString appends a JSON string. Strings made of plain bytes only — every
// track, name and workload ID the repo emits — are copied between quotes;
// anything else (escapes, control bytes, non-ASCII, invalid UTF-8) goes through
// encoding/json's own escaper, so there is no second escaping table to keep in
// step with it.
func appendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if !plainByte(s[i]) {
			b, _ := json.Marshal(s) // marshalling a string cannot fail
			return append(dst, b...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// appendStrings appends a string array; a nil slice is null, as in
// encoding/json.
func appendStrings(dst []byte, ss []string) []byte {
	if ss == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, s := range ss {
		dst = appendSep(dst, i)
		dst = appendString(dst, s)
	}
	return append(dst, ']')
}

// appendFloats appends a float array; a nil slice is null.
func appendFloats(dst []byte, fs []float64) ([]byte, error) {
	if fs == nil {
		return append(dst, "null"...), nil
	}
	dst = append(dst, '[')
	for i, f := range fs {
		dst = appendSep(dst, i)
		var err error
		if dst, err = appendFloat(dst, f); err != nil {
			return dst, err
		}
	}
	return append(dst, ']'), nil
}

// The payload appenders below mirror the json tags in decision.go field for
// field: declaration order, omitempty (false, 0, "" and empty slices are
// left out) and nil-slice-as-null for the untagged slices.

func appendScheduleDecision(dst []byte, d *ScheduleDecision) ([]byte, error) {
	var err error
	dst = append(dst, `{"workload":`...)
	dst = appendString(dst, d.Workload)
	dst = append(dst, `,"need_perf":`...)
	if dst, err = appendFloat(dst, d.NeedPerf); err != nil {
		return dst, err
	}
	dst = append(dst, `,"want":`...)
	if dst, err = appendFloat(dst, d.Want); err != nil {
		return dst, err
	}
	dst = append(dst, `,"max_nodes":`...)
	dst = strconv.AppendInt(dst, int64(d.MaxNodes), 10)
	if d.AcceptPartial {
		dst = append(dst, `,"accept_partial":true`...)
	}
	if d.MaxCost != 0 { //lint:allow(floatcmp) omitempty is an exact zero test
		dst = append(dst, `,"max_cost_per_hour":`...)
		if dst, err = appendFloat(dst, d.MaxCost); err != nil {
			return dst, err
		}
	}
	dst = append(dst, `,"candidates":`...)
	if d.Candidates == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i := range d.Candidates {
			dst = appendSep(dst, i)
			if dst, err = appendCandidate(dst, &d.Candidates[i]); err != nil {
				return dst, err
			}
		}
		dst = append(dst, ']')
	}
	if d.CandidatesDropped != 0 {
		dst = append(dst, `,"candidates_dropped":`...)
		dst = strconv.AppendInt(dst, int64(d.CandidatesDropped), 10)
	}
	if len(d.Picks) > 0 {
		dst = append(dst, `,"picks":[`...)
		for i := range d.Picks {
			dst = appendSep(dst, i)
			if dst, err = appendNodePick(dst, &d.Picks[i]); err != nil {
				return dst, err
			}
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `,"est_perf":`...)
	if dst, err = appendFloat(dst, d.EstPerf); err != nil {
		return dst, err
	}
	if d.CostPerHour != 0 { //lint:allow(floatcmp) omitempty is an exact zero test
		dst = append(dst, `,"cost_per_hour":`...)
		if dst, err = appendFloat(dst, d.CostPerHour); err != nil {
			return dst, err
		}
	}
	if len(d.Evictions) > 0 {
		dst = append(dst, `,"evictions":`...)
		dst = appendStrings(dst, d.Evictions)
	}
	dst = append(dst, `,"outcome":`...)
	dst = appendString(dst, d.Outcome)
	return append(dst, '}'), nil
}

func appendCandidate(dst []byte, c *Candidate) ([]byte, error) {
	var err error
	dst = append(dst, `{"server":`...)
	dst = strconv.AppendInt(dst, int64(c.Server), 10)
	dst = append(dst, `,"platform":`...)
	dst = appendString(dst, c.Platform)
	dst = append(dst, `,"quality":`...)
	if dst, err = appendFloat(dst, c.Quality); err != nil {
		return dst, err
	}
	dst = append(dst, `,"free_cores":`...)
	dst = strconv.AppendInt(dst, int64(c.FreeCores), 10)
	dst = append(dst, `,"free_mem_gb":`...)
	if dst, err = appendFloat(dst, c.FreeMemGB); err != nil {
		return dst, err
	}
	dst = append(dst, `,"evictable":`...)
	dst = strconv.AppendInt(dst, int64(c.Evictable), 10)
	dst = append(dst, `,"compatible":`...)
	dst = strconv.AppendBool(dst, c.Compatible)
	dst = append(dst, `,"pressure":`...)
	if dst, err = appendFloat(dst, c.Pressure); err != nil {
		return dst, err
	}
	dst = append(dst, `,"picked":`...)
	dst = strconv.AppendBool(dst, c.Picked)
	return append(dst, '}'), nil
}

func appendNodePick(dst []byte, p *NodePick) ([]byte, error) {
	var err error
	dst = append(dst, `{"server":`...)
	dst = strconv.AppendInt(dst, int64(p.Server), 10)
	dst = append(dst, `,"cores":`...)
	dst = strconv.AppendInt(dst, int64(p.Cores), 10)
	dst = append(dst, `,"mem_gb":`...)
	if dst, err = appendFloat(dst, p.MemGB); err != nil {
		return dst, err
	}
	dst = append(dst, `,"est_perf":`...)
	if dst, err = appendFloat(dst, p.EstPerf); err != nil {
		return dst, err
	}
	return append(dst, '}'), nil
}

func appendAdmitDecision(dst []byte, d *AdmitDecision) ([]byte, error) {
	var err error
	dst = append(dst, `{"workload":`...)
	dst = appendString(dst, d.Workload)
	dst = append(dst, `,"class":`...)
	dst = appendString(dst, d.Class)
	dst = append(dst, `,"ref_perf":`...)
	if dst, err = appendFloat(dst, d.RefPerf); err != nil {
		return dst, err
	}
	dst = append(dst, `,"beta":`...)
	if dst, err = appendFloat(dst, d.Beta); err != nil {
		return dst, err
	}
	dst = append(dst, `,"tol":`...)
	if dst, err = appendFloats(dst, d.Tol); err != nil {
		return dst, err
	}
	dst = append(dst, `,"caused":`...)
	if dst, err = appendFloats(dst, d.Caused); err != nil {
		return dst, err
	}
	if d.WorkEst != 0 { //lint:allow(floatcmp) omitempty is an exact zero test
		dst = append(dst, `,"work_est":`...)
		if dst, err = appendFloat(dst, d.WorkEst); err != nil {
			return dst, err
		}
	}
	if d.Deadline != 0 { //lint:allow(floatcmp) omitempty is an exact zero test
		dst = append(dst, `,"deadline":`...)
		if dst, err = appendFloat(dst, d.Deadline); err != nil {
			return dst, err
		}
	}
	return append(dst, '}'), nil
}

func appendAdjustDecision(dst []byte, d *AdjustDecision) ([]byte, error) {
	var err error
	dst = append(dst, `{"workload":`...)
	dst = appendString(dst, d.Workload)
	dst = append(dst, `,"need":`...)
	if dst, err = appendFloat(dst, d.Need); err != nil {
		return dst, err
	}
	dst = append(dst, `,"measured":`...)
	if dst, err = appendFloat(dst, d.Measured); err != nil {
		return dst, err
	}
	dst = append(dst, `,"actions":`...)
	dst = appendStrings(dst, d.Actions)
	return append(dst, '}'), nil
}
