package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// meter brackets one timed unit: wall clock, process CPU (user+sys, every
// goroutine of the process — on serve_open_tcp that includes the load
// generator), and bytes allocated.
type meter struct {
	start  time.Time
	cpu0   time.Duration
	alloc0 uint64
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// startMeter forces a collection first so every unit starts from the same
// heap state: garbage left by set-up (or by the previous unit) is not
// charged to, and does not retime the collector inside, the measured run.
func startMeter() meter {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return meter{start: time.Now(), cpu0: cpuTime(), alloc0: ms.TotalAlloc}
}

// stop closes the bracket and returns wall seconds, CPU milliseconds and
// kilobytes allocated.
func (m meter) stop() (wallS, cpuMS, allocKB float64) {
	wallS = time.Since(m.start).Seconds()
	cpuMS = float64((cpuTime() - m.cpu0).Microseconds()) / 1e3
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return wallS, cpuMS, float64(ms.TotalAlloc-m.alloc0) / 1024
}

// heapEndMB is the live heap after one forced collection. The caller keeps
// the unit's world reachable across the call, so this is what the finished
// run still holds — not a resident-set figure at the mercy of GC timing.
func heapEndMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// percentile returns the p-th percentile (0..100) of xs by nearest rank and
// whether at least minBeyond samples lie beyond it. xs must be sorted.
func percentile(sorted []float64, p float64) (v float64, ok bool) {
	n := len(sorted)
	if n == 0 {
		return math.NaN(), false
	}
	rank := int(math.Ceil(p/100*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= n {
		rank = n - 1
	}
	return sorted[rank], n-1-rank >= minBeyond
}

func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// quartiles returns Q1 and Q3 by the exclusive method — what Python's
// statistics.quantiles(values, n=4) returns, and therefore what the driver
// computes spreads with.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n < 2 {
		return median(xs), median(xs)
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// spread is the interquartile range as a share of the median.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 || math.IsNaN(m) { //lint:allow(floatcmp) exact zero guards the division
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(m)
}

// hostInfo is the fingerprint stamped on every result.
type hostInfo struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Load1      float64 `json:"load1"`
	NoisyHost  bool    `json:"noisy_host"`
}

// fingerprint pins GOMAXPROCS to min(nproc, 4) and records the host. A
// 1-minute load average above nproc/2 at start marks the run noisy_host.
func fingerprint() hostInfo {
	n := runtime.NumCPU()
	procs := n
	if procs > 4 {
		procs = 4
	}
	runtime.GOMAXPROCS(procs)
	h := hostInfo{NProc: n, GOMAXPROCS: procs, GoVersion: runtime.Version(), Commit: "unknown"}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(b)); len(f) > 0 {
			h.Load1, _ = strconv.ParseFloat(f[0], 64)
		}
	}
	h.NoisyHost = h.Load1 > float64(n)/2
	return h
}

func (h hostInfo) String() string {
	s := fmt.Sprintf("nproc=%d gomaxprocs=%d go=%s commit=%s load1=%.2f", h.NProc, h.GOMAXPROCS, h.GoVersion, h.Commit, h.Load1)
	if h.NoisyHost {
		s += " noisy_host"
	}
	return s
}
