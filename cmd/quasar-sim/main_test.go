package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestManagerTracesPinnedDigests pins every manager's simulated run across
// commits: the SHA-256 of quasar-sim's trace for the default mix, best-effort
// fillers included, is a committed literal per -manager. A change to a
// manager's placement, filler or eviction path that moves any byte fails
// here. The floors keep the pinned runs on those paths: every manager places
// fillers (40 submits, then each placement, carry "best_effort":true), and
// Quasar evicts them to grow its primaries.
func TestManagerTracesPinnedDigests(t *testing.T) {
	for _, tc := range []struct {
		manager, trace string
		// floors is the least number of trace lines holding each substring.
		floors map[string]int
	}{
		{"quasar", "e9625cf7ea18fb5bb6788eb212b5c57a2f7d146f37befa2574d2a52b5b1e791b",
			map[string]int{`"best_effort":true`: 60, `"name":"evict"`: 50}},
		{"reservation-ll", "795c2ef47324e30ec1c3ff871f60b490942fb103c1820a4486693ba84df5f012",
			map[string]int{`"best_effort":true`: 60}},
		{"reservation-paragon", "69129b4af6ac1658a11279094d2c525b3d574ccfd5bd4a5c9d99b26813a166a1",
			map[string]int{`"best_effort":true`: 60}},
		{"framework", "1876b1f1aa0b3d11fac1dd458d8563489a96eaeabb9d280948d67dbeead055a6",
			map[string]int{`"best_effort":true`: 60}},
		{"autoscale", "50508423e627c042aea81e32308eb6bdb0cb240aff32e6449be2cbf3daba5678",
			map[string]int{`"best_effort":true`: 60}},
		{"mesos-drf", "b1180910ef1424282deee2133b2a5eb297a803f220580648c9af55689d0308ea",
			map[string]int{`"best_effort":true`: 60}},
	} {
		t.Run(tc.manager, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "trace.jsonl")
			if err := run([]string{"-manager", tc.manager, "-horizon", "6000", "-trace", path}, io.Discard); err != nil {
				t.Fatal(err)
			}
			trace, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			for sub, floor := range tc.floors {
				if n := bytes.Count(trace, []byte(sub)); n < floor {
					t.Errorf("%d trace lines hold %s, want at least %d", n, sub, floor)
				}
			}
			sum := sha256.Sum256(trace)
			if got := hex.EncodeToString(sum[:]); got != tc.trace {
				t.Errorf("trace (%d bytes) sha256 = %s, want %s", len(trace), got, tc.trace)
			}
		})
	}
}

// TestTraceFormats holds -trace-format to two rules: an unknown format is
// refused before the run, with no trace file created, and the prom
// snapshot, which keeps no event buffer, renders the pinned bytes of the
// default mix.
func TestTraceFormats(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "x.out")
	if err := run([]string{"-horizon", "6000", "-trace", bad, "-trace-format", "xyz"}, io.Discard); err == nil {
		t.Fatal("unknown -trace-format accepted")
	}
	if _, err := os.Stat(bad); !os.IsNotExist(err) {
		t.Fatalf("unknown -trace-format left a file behind (stat: %v)", err)
	}

	prom := filepath.Join(dir, "run.prom")
	if err := run([]string{"-horizon", "6000", "-trace", prom, "-trace-format", "prom"}, io.Discard); err != nil {
		t.Fatal(err)
	}
	snapshot, err := os.ReadFile(prom)
	if err != nil {
		t.Fatal(err)
	}
	const want = "9a14fab073ea40ba8c11499a44c7996304774d26c0474032e369591748059000"
	if sum := sha256.Sum256(snapshot); hex.EncodeToString(sum[:]) != want {
		t.Errorf("prom snapshot (%d bytes) sha256 = %x, want %s", len(snapshot), sum, want)
	}
}
