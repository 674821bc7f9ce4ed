package serve

import (
	"encoding/json"
	"fmt"
	"os"

	"quasar/internal/obs"
)

// snapshotVersion is the ServeSnapshot format version.
const snapshotVersion = 1

// ServeSnapshot is the warm-failover handoff: the manager's serialized state
// pinned to the epoch boundary it was captured at, plus the journal and
// universe cursors a standby needs to line the snapshot up against the
// journal tail. The world itself (cluster, runtime, in-flight events) is not
// serialized — closures cannot be — so a standby rebuilds it by replaying
// the journal from the start, then verifies its manager byte-matches
// Manager at SimTime before (or instead of) restoring from it.
type ServeSnapshot struct {
	// Version is the format version (currently 1).
	Version int `json:"version"`
	// SimTime is the epoch boundary the snapshot was captured at.
	SimTime float64 `json:"sim_time"`
	// AppliedSeq is the journal sequence number of the last entry applied
	// at or before SimTime.
	AppliedSeq int `json:"applied_seq"`
	// NextCounter is the universe's instance counter at SimTime, pinning
	// the workload-ID cursor.
	NextCounter int `json:"next_counter"`
	// Manager is the Quasar manager snapshot (core.QuasarSnapshot JSON).
	Manager json.RawMessage `json:"manager"`
}

// writeSnapshot captures the world's failover state at the current epoch
// boundary and lands it atomically at snapPath. The bytes are deterministic:
// the same world state always serializes identically, which is what lets a
// standby verify its journal-rebuilt manager against the primary's snapshot
// with a byte compare.
func (w *world) writeSnapshot() error {
	mgr, err := w.Q.MarshalSnapshot()
	if err != nil {
		return err
	}
	data, err := json.Marshal(&ServeSnapshot{
		Version:     snapshotVersion,
		SimTime:     w.RT.Eng.Now(),
		AppliedSeq:  w.appliedSeq,
		NextCounter: w.U.Counter(),
		Manager:     mgr,
	})
	if err != nil {
		return err
	}
	return writeSnapshotFile(w.snapPath, append(data, '\n'))
}

// LoadSnapshot reads and validates a snapshot file.
func LoadSnapshot(path string) (*ServeSnapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("serve: reading snapshot: %w", err)
	}
	var snap ServeSnapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, fmt.Errorf("serve: decoding snapshot %s: %w", path, err)
	}
	if snap.Version != snapshotVersion {
		return nil, fmt.Errorf("serve: snapshot %s has version %d, want %d", path, snap.Version, snapshotVersion)
	}
	if snap.SimTime < 0 || snap.AppliedSeq < 0 || snap.NextCounter < 0 {
		return nil, fmt.Errorf("serve: snapshot %s has negative cursor", path)
	}
	if len(snap.Manager) == 0 {
		return nil, fmt.Errorf("serve: snapshot %s carries no manager state", path)
	}
	return &snap, nil
}

// writeSnapshotFile lands a snapshot atomically: temp file in the
// destination directory, then rename — a standby polling the path never
// observes a half-written snapshot, and a crash mid-write leaves the
// previous snapshot intact.
func writeSnapshotFile(path string, data []byte) error {
	f, err := obs.CreateTemp(path)
	if err != nil {
		return err
	}
	tmp := f.Name()
	if _, err := f.Write(data); err != nil {
		_ = f.Close()
		_ = os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		_ = os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		_ = os.Remove(tmp)
		return err
	}
	return nil
}
