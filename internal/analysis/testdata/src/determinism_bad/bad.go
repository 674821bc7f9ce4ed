// Package determinism_bad is a known-bad fixture: every function breaks
// the seeded-simulation contract in a way the determinism analyzer must
// flag.
package determinism_bad

import (
	"math/rand"
	"time"
)

// GlobalDraw draws from the unseeded shared source.
func GlobalDraw() int { return rand.Intn(10) }

// WallClock reads the wall clock outside the allowlist.
func WallClock() int64 { return time.Now().UnixNano() }

// CollectUnsorted emits map values in randomized iteration order.
func CollectUnsorted(m map[string]int) []int {
	var out []int
	for _, v := range m {
		out = append(out, v)
	}
	return out
}

// jitter draws from the unseeded shared source before any function runs.
var jitter = rand.Float64()
