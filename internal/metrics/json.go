package metrics

import "encoding/json"

// JSON marshalling for the measurement containers. The wire shapes are
// explicit DTO structs (field order is the declaration order, so output is
// byte-stable) and round-trip: Unmarshal(Marshal(x)) reproduces x's
// observable state. The obs exporters embed these in JSONL logs and decode
// them back in analysis tooling.

// seriesJSON is the wire shape of a Series.
type seriesJSON struct {
	Name  string    `json:"name"`
	Times []float64 `json:"times"`
	Vals  []float64 `json:"vals"`
}

// MarshalJSON implements json.Marshaler.
func (s *Series) MarshalJSON() ([]byte, error) {
	return json.Marshal(seriesJSON{Name: s.Name, Times: s.Times, Vals: s.Vals})
}

// UnmarshalJSON implements json.Unmarshaler.
func (s *Series) UnmarshalJSON(data []byte) error {
	var w seriesJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	s.Name, s.Times, s.Vals = w.Name, w.Times, w.Vals
	return nil
}

// histogramJSON is the wire shape of a Histogram. Buckets are stored as the
// sorted parallel index/count slices, so output is byte-stable and
// Unmarshal(Marshal(h)) reproduces h's observable state exactly.
type histogramJSON struct {
	RelErr float64  `json:"rel_err"`
	Idx    []int32  `json:"idx"`
	Cnt    []uint64 `json:"cnt"`
	Zero   uint64   `json:"zero"`
	Count  uint64   `json:"count"`
	Min    float64  `json:"min"`
	Max    float64  `json:"max"`
}

// MarshalJSON implements json.Marshaler.
func (h *Histogram) MarshalJSON() ([]byte, error) {
	return json.Marshal(histogramJSON{
		RelErr: h.alpha, Idx: h.idx, Cnt: h.cnt,
		Zero: h.zero, Count: h.count, Min: h.min, Max: h.max,
	})
}

// UnmarshalJSON implements json.Unmarshaler.
func (h *Histogram) UnmarshalJSON(data []byte) error {
	var w histogramJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	h.alpha = w.RelErr
	h.idx, h.cnt = w.Idx, w.Cnt
	h.zero, h.count, h.min, h.max = w.Zero, w.Count, w.Min, w.Max
	if h.alpha > 0 && h.alpha < 1 {
		h.derive()
	}
	return nil
}

// heatmapJSON is the wire shape of a Heatmap.
type heatmapJSON struct {
	Rows  int         `json:"rows"`
	Times []float64   `json:"times"`
	Cells [][]float64 `json:"cells"`
}

// MarshalJSON implements json.Marshaler.
func (h *Heatmap) MarshalJSON() ([]byte, error) {
	return json.Marshal(heatmapJSON{Rows: h.Rows, Times: h.Times, Cells: h.Cells})
}

// UnmarshalJSON implements json.Unmarshaler.
func (h *Heatmap) UnmarshalJSON(data []byte) error {
	var w heatmapJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	h.Rows, h.Times, h.Cells = w.Rows, w.Times, w.Cells
	return nil
}
