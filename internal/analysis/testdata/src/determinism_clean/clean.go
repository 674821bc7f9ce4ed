// Package determinism_clean is a known-clean fixture: seeded draws, an
// annotated wall-clock read, and sorted map accumulation must produce no
// determinism diagnostics.
package determinism_clean

import (
	"math/rand"
	"sort"
	"time"

	"quasar/internal/sim"
)

// SeededDraw uses an explicitly seeded generator.
func SeededDraw(seed int64) int {
	rng := rand.New(sim.NewSource(seed))
	return rng.Intn(10)
}

// Timestamp documents its intentional wall-clock read.
func Timestamp() int64 {
	return time.Now().UnixNano() //lint:allow(determinism) fixture: intentional wall-clock read
}

// CollectSorted accumulates across a map but sorts the result.
func CollectSorted(m map[string]int) []int {
	var out []int
	for _, v := range m {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

// CollectByKey iterates in sorted key order; the per-iteration append
// target lives inside the loop, so nothing escapes unordered.
func CollectByKey(m map[string]int) []int {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]int, 0, len(keys))
	for _, k := range keys {
		out = append(out, m[k])
	}
	return out
}
