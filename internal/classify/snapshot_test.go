package classify

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"quasar/internal/sim"
	"quasar/internal/workload"
)

// TestLoadSnapshotRejectsHostileInput: a snapshot is outside input. Each
// way it can be wrong fails the load with an error naming the offender — no
// panic, no silent acceptance — and leaves the engine exactly as it was.
func TestLoadSnapshotRejectsHostileInput(t *testing.T) {
	e, u := testSetup(t, 2)
	w := u.New(workload.Spec{Type: workload.Hadoop, Family: -1, MaxNodes: 4})
	e.Classify(w, NewGroundTruthProber(w, e.Platforms, sim.NewRNG(5)))
	good, err := e.MarshalSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	rows := e.Rows()
	// hostile returns a deep copy of the good snapshot with one defect.
	hostile := func(mutate func(s *EngineSnapshot)) *EngineSnapshot {
		var s EngineSnapshot
		if err := json.Unmarshal(good, &s); err != nil {
			t.Fatal(err)
		}
		mutate(&s)
		return &s
	}
	cases := []struct {
		name string
		snap *EngineSnapshot
		want string // substring of the error
	}{
		{"nil snapshot", nil, "no engine state"},
		{"missing axis", hostile(func(s *EngineSnapshot) { s.Axes = s.Axes[:numAxes-1] }), "4 axes"},
		{"extra axis", hostile(func(s *EngineSnapshot) { s.Axes = append(s.Axes, s.Axes[0]) }), "6 axes"},
		{"no axes at all", &EngineSnapshot{}, "0 axes"},
		{"ragged row counts", hostile(func(s *EngineSnapshot) {
			s.Axes[AxisCaused] = s.Axes[AxisCaused][:rows-1]
		}), "axis caused has"},
		{"column past the grid", hostile(func(s *EngineSnapshot) {
			s.Axes[AxisHetero][3][len(e.Platforms)] = 0.5
		}), "axis heterogeneity row 3: column 10"},
		{"negative column", hostile(func(s *EngineSnapshot) {
			s.Axes[AxisScaleUp][0][-1] = 0.5
		}), "axis scale-up row 0: column -1"},
		{"infinite cell", hostile(func(s *EngineSnapshot) {
			s.Axes[AxisScaleOut][2][1] = math.Inf(1)
		}), "axis scale-out row 2 column 1: non-finite"},
		{"NaN cell", hostile(func(s *EngineSnapshot) {
			s.Axes[AxisTolerated][1][0] = math.NaN()
		}), "axis tolerated row 1 column 0: non-finite"},
		{"row index past the matrices", hostile(func(s *EngineSnapshot) { s.RowOf["ghost-0001"] = rows }), "ghost-0001"},
		{"negative row index", hostile(func(s *EngineSnapshot) { s.RowOf[w.ID] = -1 }), w.ID},
	}
	for _, c := range cases {
		// The last axis is the one a validate-as-you-go loader would reach
		// after replacing the others; watch all of them.
		var mats, models [numAxes]any
		for i, a := range e.axes {
			mats[i], models[i] = a.mat, a.model
		}
		err := e.LoadSnapshot(c.snap)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want one naming %q", c.name, err, c.want)
		}
		for i, a := range e.axes {
			if a.mat != mats[i] || a.model != models[i] {
				t.Fatalf("%s: a rejected snapshot replaced the %s axis", c.name, Axis(i))
			}
		}
		if got, _ := e.MarshalSnapshot(); string(got) != string(good) {
			t.Fatalf("%s: a rejected snapshot changed the engine's state", c.name)
		}
	}

	// Through the decoder: JSON cannot carry NaN, but it can carry null, a
	// missing field and an out-of-grid column.
	for _, data := range []string{`null`, `{}`, `{"axes":null,"row_of":{}}`,
		`{"axes":[[{"81":1}],[{}],[{}],[{}],[{}]],"row_of":{}}`} {
		if err := e.UnmarshalSnapshot([]byte(data)); err == nil {
			t.Errorf("UnmarshalSnapshot(%s) accepted", data)
		}
	}
	// And the good one still loads.
	if err := e.UnmarshalSnapshot(good); err != nil {
		t.Fatalf("good snapshot rejected after the hostile ones: %v", err)
	}
	if e.Rows() != rows {
		t.Fatalf("rows %d after reload, want %d", e.Rows(), rows)
	}
}
