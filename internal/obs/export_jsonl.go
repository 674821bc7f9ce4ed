package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// The JSONL export is the canonical machine-readable log: one JSON object per
// line — a header line first (the format version and the trace controls the
// run recorded under), then events in sequence order, then one line per
// registered metrics container. Field order is fixed by DTO struct
// declaration order and Args marshal as an object in emission order, so the
// file is byte-identical across runs and worker counts. The buffered
// WriteJSONL and the incremental StreamSink share the per-line encoders
// (appendEventLine in encode.go for events, writeRegistryLines below for the
// metric tail), which is what makes a streamed file byte-identical to a
// buffered export of the same run. cmd/quasar-trace reconstructs runs from
// this format alone.

// jsonlMetric is the wire shape of one trailing metric line.
type jsonlMetric struct {
	Metric string `json:"metric"`
	Kind   string `json:"kind"`
	Help   string `json:"help,omitempty"`
	Value  any    `json:"value"`
}

// writeRegistryLines appends the registry's metric lines in registration
// order (shared by WriteJSONL and StreamSink.Close).
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
		case kindDistribution:
			m.Kind, m.Value = "distribution", e.dist
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
// to w from a buffered tracer. Byte-identical to what a StreamSink produced
// incrementally for the same run.
func WriteJSONL(w io.Writer, t *Tracer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	h := t.Header()
	if err := enc.Encode(&h); err != nil {
		return err
	}
	if err := writeEventLines(bw, t.Events()); err != nil {
		return err
	}
	if err := writeRegistryLines(enc, t.Registry()); err != nil {
		return err
	}
	return bw.Flush()
}

// WriteEventsJSONL writes an explicit event window as JSONL — the optional
// header line first, then one line per event with the events' original
// sequence numbers — using the same per-line encoder as the full exporters.
// This is the flight-recorder dump format: a RingSink's retained window
// serialized mid-run, without the trailing registry lines a finalized trace
// carries.
func WriteEventsJSONL(w io.Writer, h *Header, events []Event) error {
	bw := bufio.NewWriter(w)
	if h != nil {
		if err := json.NewEncoder(bw).Encode(h); err != nil {
			return err
		}
	}
	if err := writeEventLines(bw, events); err != nil {
		return err
	}
	return bw.Flush()
}

// writeEventLines encodes events one line at a time through a single reused
// line buffer, stopping at the first event that fails to encode.
func writeEventLines(bw *bufio.Writer, events []Event) error {
	var line []byte
	for i := range events {
		var err error
		if line, err = appendEventLine(line[:0], &events[i]); err != nil {
			return err
		}
		if _, err := bw.Write(line); err != nil {
			return err
		}
	}
	return nil
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

// StreamJSONL scans a JSONL trace incrementally, invoking fn for each event
// line without ever holding more than one line in memory — how quasar-trace
// summarizes multi-gigabyte traces. The returned header is the parsed first
// line when present (headerless pre-v2 traces return nil). Metric lines are
// skipped. fn returning an error aborts the scan with that error.
func StreamJSONL(r io.Reader, fn func(ev *RawEvent) error) (*Header, error) {
	return ScanJSONL(r, fn, nil)
}

// ScanJSONL is StreamJSONL with the trailing metric lines also delivered,
// to onMetric (skipped when nil). Either callback returning an error aborts
// the scan with that error.
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
	h, err := StreamJSONL(io.LimitReader(r, 1<<20), func(*RawEvent) error { return errStopScan })
	if err == errStopScan {
		err = nil
	}
	return h, err
}

// errStopScan is ReadHeader's internal early-exit sentinel.
var errStopScan = fmt.Errorf("obs: stop scan")

// ReadJSONL parses a whole JSONL trace into memory, returning events and
// skipping the header and trailing metric lines (lines without a "seq"
// field). Use StreamJSONL when the trace may not fit.
func ReadJSONL(r io.Reader) ([]RawEvent, error) {
	var out []RawEvent
	_, err := StreamJSONL(r, func(ev *RawEvent) error {
		out = append(out, *ev)
		return nil
	})
	return out, err
}
