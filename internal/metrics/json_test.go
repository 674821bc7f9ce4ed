package metrics

import (
	"bytes"
	"encoding/json"
	"testing"
)

func TestSeriesJSONRoundTrip(t *testing.T) {
	s := &Series{Name: "util"}
	s.Add(0, 0.25)
	s.Add(10, 0.5)
	s.Add(20, 0.75)
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var got Series
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if got.Name != s.Name || got.Len() != s.Len() {
		t.Fatalf("round-trip lost shape: %+v", got)
	}
	for i := range s.Vals {
		if got.Times[i] != s.Times[i] || got.Vals[i] != s.Vals[i] { //lint:allow(floatcmp) exact round-trip
			t.Fatalf("point %d: got (%v,%v) want (%v,%v)",
				i, got.Times[i], got.Vals[i], s.Times[i], s.Vals[i])
		}
	}
	// Marshalling is byte-stable.
	b2, err := json.Marshal(&got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b, b2) {
		t.Fatalf("series marshal not byte-stable:\n%s\nvs\n%s", b, b2)
	}
}

func TestHeatmapJSONRoundTrip(t *testing.T) {
	h := NewHeatmap(2)
	h.Sample(0, []float64{0.1, 0.2})
	h.Sample(10, []float64{0.3, 0.4})
	b, err := json.Marshal(h)
	if err != nil {
		t.Fatal(err)
	}
	var got Heatmap
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if got.Rows != h.Rows || len(got.Times) != len(h.Times) {
		t.Fatalf("round-trip lost shape: %+v", got)
	}
	if got.MeanOverall() != h.MeanOverall() { //lint:allow(floatcmp) exact round-trip
		t.Fatalf("mean changed: %v vs %v", got.MeanOverall(), h.MeanOverall())
	}
	for i := range h.Cells {
		for j := range h.Cells[i] {
			if got.Cells[i][j] != h.Cells[i][j] { //lint:allow(floatcmp) exact round-trip
				t.Fatalf("cell (%d,%d) changed", i, j)
			}
		}
	}
}
