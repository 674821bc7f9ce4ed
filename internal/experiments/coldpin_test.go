package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"quasar/internal/cluster"
)

// TestColdFitPathsPinnedDigests pins, as SHA-256 of their JSON, the reduced
// Table 2 sweep of TestTable2DeterministicAcrossWorkers, the fake-clock
// Fig. 3 sweep of TestFig3DeterministicAcrossWorkers and the full default
// Table 2. All three reach the classifier only through appends and
// RetrainAll — retrain points that fit cold, from the SVD seed — so a
// change to how runtime refits are seeded must leave every byte of them as
// it is. The reduced sweeps never pass a retrain point after library
// seeding; the default Table 2 passes several, so it is the one that sees
// how an append fits. All three run under -short. A change meant to move
// them (the cold fit, the probes, the scenario) updates the literals and
// says why.
func TestColdFitPathsPinnedDigests(t *testing.T) {
	digest := func(v any) string {
		out, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(out)
		return hex.EncodeToString(sum[:])
	}
	t2 := DefaultTable2Config()
	t2.Hadoop, t2.Memcached, t2.Webserver, t2.SingleNode = 3, 3, 3, 10
	f3 := DefaultFig3Config()
	f3.EntriesGrid = []int{1, 4}
	f3.PerClass = 2
	f3.SeedLibPerType = 2
	f3.PointClock = fakeClock
	for _, c := range []struct {
		name, want string
		run        func() any
	}{
		{"table2", "a87ffb7a5612b1869a4a152dc93f9a17721c00d325a1915c0565234ccc37826e", func() any { return Table2(t2) }},
		{"fig3", "8d706aa5d20d9a880851418c13de12f10dfee75c855bf77fcc1e56a3c79a163a", func() any { return fig3(f3, cluster.LocalPlatforms(), 6) }},
		{"table2-default", "e31ca1005249a9100d026bb946cd82d159b12638f3b7a0088828c641a6e89a93", func() any { return Table2(DefaultTable2Config()) }},
	} {
		if got := digest(c.run()); got != c.want {
			t.Errorf("%s: digest %s, pinned %s", c.name, got, c.want)
		}
	}
}
