package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
)

// The event-line encoder appendEventLine replaced, kept verbatim as the
// oracle (the cf/reference_test.go pattern): the reflection path through
// encoding/json that defined the trace's bytes at PR 14. argsObject,
// jsonlEvent and encodeEventLine are unchanged from that commit; only
// referenceEventLine, the adapter the differential tests call, is new.

// argsObject marshals an ordered Arg slice as a JSON object, preserving the
// emission-site key order.
type argsObject []Arg

// MarshalJSON implements json.Marshaler.
func (a argsObject) MarshalJSON() ([]byte, error) {
	if len(a) == 0 {
		return []byte("{}"), nil
	}
	out := []byte{'{'}
	for i, kv := range a {
		if i > 0 {
			out = append(out, ',')
		}
		k, err := json.Marshal(kv.Key)
		if err != nil {
			return nil, err
		}
		val := kv.Val
		// JSON has no literal for non-finite floats; a crashed server's
		// infinite p99 still has to export, so render them as strings.
		if f, ok := val.(float64); ok && (math.IsInf(f, 0) || math.IsNaN(f)) {
			val = fmt.Sprintf("%g", f)
		}
		v, err := json.Marshal(val)
		if err != nil {
			return nil, fmt.Errorf("obs: arg %q: %w", kv.Key, err)
		}
		out = append(out, k...)
		out = append(out, ':')
		out = append(out, v...)
	}
	return append(out, '}'), nil
}

// jsonlEvent is the wire shape of one event line.
type jsonlEvent struct {
	Seq   uint64     `json:"seq"`
	T     float64    `json:"t"`
	Ph    string     `json:"ph"`
	ID    string     `json:"id,omitempty"`
	Cat   string     `json:"cat"`
	Name  string     `json:"name"`
	Track string     `json:"track"`
	Args  argsObject `json:"args"`
}

// encodeEventLine writes one event line; the single encoder both WriteJSONL
// and StreamSink use, so their bytes cannot diverge.
func encodeEventLine(enc *json.Encoder, ev *Event) error {
	return enc.Encode(jsonlEvent{
		Seq: ev.Seq, T: ev.Time, Ph: string(ev.Phase), ID: ev.ID,
		Cat: ev.Cat, Name: ev.Name, Track: ev.Track, Args: argsObject(ev.Args),
	})
}

// referenceEventLine renders one event line with the reference encoder.
func referenceEventLine(ev *Event) ([]byte, error) {
	var buf bytes.Buffer
	err := encodeEventLine(json.NewEncoder(&buf), ev)
	return buf.Bytes(), err
}
