package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// The JSONL export is the canonical machine-readable log: one JSON object per
// line — a header line first (the format version and the top-K cap the run
// recorded under), then events in sequence order, then one line per
// registered metrics container. Field order is fixed by DTO struct
// declaration order and Args marshal as an object in emission order, so the
// file is byte-identical across runs. StreamSink is the one writer of the
// format (appendEventLine in encode.go for events, writeRegistryLines below
// for the metric tail); the buffered exports replay retained events through
// it, which is what makes a streamed file byte-identical to a buffered export
// of the same run. cmd/quasar-trace reconstructs runs from this format alone.

// jsonlMetric is the wire shape of one trailing metric line.
type jsonlMetric struct {
	Metric string `json:"metric"`
	Kind   string `json:"kind"`
	Help   string `json:"help,omitempty"`
	Value  any    `json:"value"`
}

// writeRegistryLines appends the registry's metric lines in registration
// order (StreamSink.Close's metric tail).
func writeRegistryLines(enc *json.Encoder, reg *Registry) error {
	if reg == nil {
		return nil
	}
	for i := range reg.entries {
		e := &reg.entries[i]
		// Labeled entries carry the label set in the metric name; unlabeled
		// ones keep the bare name, so pre-label traces are byte-unchanged.
		m := jsonlMetric{Metric: e.key(), Help: e.help}
		switch e.kind {
		case kindCounter:
			m.Kind, m.Value = "counter", e.counter.Value()
		case kindGauge:
			m.Kind, m.Value = "gauge", e.gauge()
		case kindSeries:
			m.Kind, m.Value = "series", e.series
		case kindHistogram:
			m.Kind, m.Value = "histogram", e.hist
		case kindHeatmap:
			m.Kind, m.Value = "heatmap", e.heat
		}
		if err := enc.Encode(m); err != nil {
			return err
		}
	}
	return nil
}

// WriteJSONL writes the full trace — header, events, then registry metrics —
// to w from a buffered tracer, by replaying its events through a
// writer-backed StreamSink: byte-identical to what a StreamSink produced
// incrementally for the same run.
func WriteJSONL(w io.Writer, t *Tracer) error {
	h := t.Header()
	return replayJSONL(w, &h, t.Events(), t.Registry())
}

// WriteEventsJSONL writes an explicit event window as JSONL — the optional
// header line first, then one line per event with the events' original
// sequence numbers. This is the flight-recorder dump format: a RingSink's
// retained window serialized mid-run, without the trailing registry lines a
// finalized trace carries.
func WriteEventsJSONL(w io.Writer, h *Header, events []Event) error {
	return replayJSONL(w, h, events, nil)
}

// replayJSONL runs a header (none when nil), events and reg's metric tail
// through a StreamSink over w, stopping at the first event that fails to
// encode.
func replayJSONL(w io.Writer, h *Header, events []Event, reg *Registry) error {
	s := NewStreamSinkWriter(w)
	if h == nil {
		s.started = true // a headerless window: Close must not add one
	} else if err := s.Start(h); err != nil {
		return err
	}
	for i := range events {
		if err := s.Emit(&events[i], 0); err != nil {
			return err
		}
	}
	return s.Close(reg)
}

// RawEvent is the decoded form of one JSONL event line, with the payload left
// raw for callers to project into typed decision structs.
type RawEvent struct {
	Seq   uint64          `json:"seq"`
	T     float64         `json:"t"`
	Ph    string          `json:"ph"`
	ID    string          `json:"id"`
	Cat   string          `json:"cat"`
	Name  string          `json:"name"`
	Track string          `json:"track"`
	Args  json.RawMessage `json:"args"`
}

// RawMetric is the decoded form of one trailing metric line, with the value
// left raw for callers to project into the container shape Kind names.
type RawMetric struct {
	Name  string          `json:"metric"`
	Kind  string          `json:"kind"`
	Help  string          `json:"help"`
	Value json.RawMessage `json:"value"`
}

// ScanJSONL scans a JSONL trace incrementally, invoking onEvent for each
// event line without ever holding more than one line in memory — how
// quasar-trace summarizes multi-gigabyte traces. The returned header is the
// parsed first line when present (headerless pre-v2 traces return nil). The
// trailing metric lines go to onMetric, or are skipped when it is nil.
// Either callback returning an error aborts the scan with that error.
func ScanJSONL(r io.Reader, onEvent func(ev *RawEvent) error, onMetric func(m *RawMetric) error) (*Header, error) {
	var header *Header
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	line, seen := 0, 0
	for sc.Scan() {
		line++
		b := sc.Bytes()
		if len(b) == 0 {
			continue
		}
		seen++
		var ev RawEvent
		if err := json.Unmarshal(b, &ev); err != nil {
			return header, fmt.Errorf("obs: jsonl line %d: %w", line, err)
		}
		if ev.Seq == 0 {
			if seen == 1 {
				var h Header
				if json.Unmarshal(b, &h) == nil && h.Trace == headerMagic {
					header = &h
					continue
				}
			}
			if onMetric != nil {
				var m RawMetric
				if err := json.Unmarshal(b, &m); err != nil {
					return header, fmt.Errorf("obs: jsonl line %d: %w", line, err)
				}
				if m.Name != "" {
					if err := onMetric(&m); err != nil {
						return header, err
					}
				}
			}
			continue // header or metric line
		}
		if err := onEvent(&ev); err != nil {
			return header, err
		}
	}
	if err := sc.Err(); err != nil {
		return header, err
	}
	return header, nil
}

// ReadHeader parses just the leading header line of a JSONL trace (nil for a
// headerless trace).
func ReadHeader(r io.Reader) (*Header, error) {
	h, err := ScanJSONL(io.LimitReader(r, 1<<20), func(*RawEvent) error { return errStopScan }, nil)
	if err == errStopScan {
		err = nil
	}
	return h, err
}

// errStopScan is ReadHeader's internal early-exit sentinel.
var errStopScan = fmt.Errorf("obs: stop scan")

// ReadJSONL parses a whole JSONL trace into memory, returning events and
// skipping the header and trailing metric lines (lines without a "seq"
// field). Use ScanJSONL when the trace may not fit.
func ReadJSONL(r io.Reader) ([]RawEvent, error) {
	var out []RawEvent
	_, err := ScanJSONL(r, func(ev *RawEvent) error {
		out = append(out, *ev)
		return nil
	}, nil)
	return out, err
}
