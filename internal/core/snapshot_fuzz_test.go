package core

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzQuasarUnmarshalSnapshot feeds arbitrary bytes to a mid-run manager's
// UnmarshalSnapshot: every input either restores or errors, never panics,
// and an error leaves the manager's snapshot byte-identical. Seeded with the
// manager's own snapshot and tampered copies of it; the committed corpus
// holds small hand-made cases.
func FuzzQuasarUnmarshalSnapshot(f *testing.F) {
	q := midRunQuasar(f)
	base, err := q.MarshalSnapshot()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(base)
	snap := q.Snapshot()
	snap.Tasks[len(snap.Tasks)-1].ID = "ghost-0001"
	ghost, err := json.Marshal(snap)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(ghost)
	f.Add(base[:len(base)/2])

	f.Fuzz(func(t *testing.T, data []byte) {
		if err := q.UnmarshalSnapshot(data); err != nil {
			after, err2 := q.MarshalSnapshot()
			if err2 != nil {
				t.Fatal(err2)
			}
			if !bytes.Equal(after, base) {
				t.Fatalf("rejected snapshot (%v) changed the manager's state", err)
			}
			return
		}
		if _, err := q.MarshalSnapshot(); err != nil {
			t.Fatalf("restored state does not marshal: %v", err)
		}
		// Put the base state back for the next input.
		if err := q.UnmarshalSnapshot(base); err != nil {
			t.Fatalf("base snapshot no longer restores: %v", err)
		}
		if after, _ := q.MarshalSnapshot(); !bytes.Equal(after, base) {
			t.Fatal("base snapshot does not round-trip")
		}
	})
}
