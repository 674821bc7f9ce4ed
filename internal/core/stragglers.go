package core

import (
	"math"
	"slices"
	"sort"

	"quasar/internal/sim"
)

// This file implements the straggler-detection study of §4.3: Quasar calls
// the Hadoop TaskTracker API, finds tasks at least 50% slower than the
// median, injects contentious microbenchmarks on their servers and
// reclassifies them; if the in-place interference classification deviates
// from the original by more than 20%, the task is flagged and relaunched.
// This detects stragglers earlier than Hadoop's speculative execution
// (which waits for enough progress-score history) and earlier than LATE
// (which waits for a stable estimated-finish-time ranking).
//
// Map tasks are modeled individually here (the fluid job model of the main
// runtime deliberately abstracts them away): each task has a work size and
// a rate; stragglers get their rate cut at a known onset time, so detection
// latency can be measured exactly.

// MapTask is one map task of a framework job.
type MapTask struct {
	ID   int
	Work float64
	Rate float64

	// Straggler tasks slow to Rate*SlowFactor at OnsetSecs.
	Straggler  bool
	OnsetSecs  float64
	SlowFactor float64

	progress float64
}

// rateAt returns the task's rate at time t.
func (mt *MapTask) rateAt(t float64) float64 {
	if mt.Straggler && t >= mt.OnsetSecs {
		return mt.Rate * mt.SlowFactor
	}
	return mt.Rate
}

// StragglerDetector flags straggling tasks from observable progress.
type StragglerDetector interface {
	Name() string
	// Detect inspects task progress at time now and returns the IDs of
	// newly flagged stragglers.
	Detect(now float64, tasks []*MapTask) []int
}

// progressOf returns each task's progress fraction.
func progressOf(tasks []*MapTask) []float64 {
	out := make([]float64, len(tasks))
	for i, mt := range tasks {
		out[i] = mt.progress / mt.Work
	}
	return out
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[len(s)/2]
}

// HadoopDetector models stock Hadoop speculative execution: a task is
// flagged when it has run for at least MinRunSecs and its progress score
// falls more than Gap below the category average.
type HadoopDetector struct {
	MinRunSecs float64
	Gap        float64
	flagged    map[int]bool
}

// NewHadoopDetector returns the stock detector with Hadoop's defaults
// (60s minimum runtime, 0.2 progress gap), compressed to the simulation's
// timescale via minRun.
func NewHadoopDetector(minRun float64) *HadoopDetector {
	return &HadoopDetector{MinRunSecs: minRun, Gap: 0.2, flagged: map[int]bool{}}
}

// Name implements StragglerDetector.
func (d *HadoopDetector) Name() string { return "hadoop" }

// Detect implements StragglerDetector.
func (d *HadoopDetector) Detect(now float64, tasks []*MapTask) []int {
	if now < d.MinRunSecs {
		return nil
	}
	prog := progressOf(tasks)
	mean := 0.0
	for _, p := range prog {
		mean += p
	}
	mean /= float64(len(prog))
	var out []int
	for i, p := range prog {
		if d.flagged[tasks[i].ID] || p >= 1 {
			continue
		}
		if p < mean-d.Gap {
			d.flagged[tasks[i].ID] = true
			out = append(out, tasks[i].ID)
		}
	}
	return out
}

// LATEDetector models the LATE scheduler: it estimates each task's time to
// finish from its *lifetime-average* progress rate (progress/elapsed, as
// LATE computes progress scores) and flags tasks whose rate falls below the
// slow-task threshold. The lifetime average dilutes a recent slowdown, so
// LATE reacts faster than stock Hadoop but still lags the onset.
type LATEDetector struct {
	WindowSecs float64 // minimum observation time before flagging
	flagged    map[int]bool
}

// NewLATEDetector returns a LATE-style detector with the given minimum
// observation window.
func NewLATEDetector(window float64) *LATEDetector {
	return &LATEDetector{WindowSecs: window, flagged: map[int]bool{}}
}

// Name implements StragglerDetector.
func (d *LATEDetector) Name() string { return "late" }

// Detect implements StragglerDetector.
func (d *LATEDetector) Detect(now float64, tasks []*MapTask) []int {
	if now < d.WindowSecs {
		return nil
	}
	// Lifetime-average progress rates.
	rates := make(map[int]float64, len(tasks))
	var rs []float64
	for _, mt := range tasks {
		if mt.progress >= mt.Work {
			continue
		}
		r := (mt.progress / mt.Work) / now
		rates[mt.ID] = r
		rs = append(rs, r)
	}
	if len(rs) < 4 {
		return nil
	}
	sort.Float64s(rs)
	med := rs[len(rs)/2]
	var out []int
	for _, mt := range tasks {
		if d.flagged[mt.ID] || mt.progress >= mt.Work {
			continue
		}
		if rates[mt.ID] < 0.6*med {
			d.flagged[mt.ID] = true
			out = append(out, mt.ID)
		}
	}
	return out
}

// QuasarDetector models §4.3: suspects are tasks at least 50% slower than
// the median progress; each suspect is confirmed by injecting two
// contentious microbenchmarks and reclassifying in place, which takes
// ProbeSecs and succeeds when the task is genuinely interference-slowed
// (>20% deviation from the original classification).
type QuasarDetector struct {
	ProbeSecs float64
	flagged   map[int]bool
	probing   map[int]float64 // task -> probe completion time
	lastProg  map[int]float64
	lastTime  float64
	rates     map[int]float64
	rng       *sim.RNG
}

// NewQuasarDetector returns the Quasar straggler detector.
func NewQuasarDetector(probeSecs float64, rng *sim.RNG) *QuasarDetector {
	return &QuasarDetector{
		ProbeSecs: probeSecs,
		flagged:   map[int]bool{},
		probing:   map[int]float64{},
		lastProg:  map[int]float64{},
		rates:     map[int]float64{},
		rng:       rng,
	}
}

// Name implements StragglerDetector.
func (d *QuasarDetector) Name() string { return "quasar" }

// emaTauSecs is the time constant of the rate estimate Quasar derives from
// TaskTracker counters — responsive, but not instantaneous.
const emaTauSecs = 10.0

// Detect implements StragglerDetector.
func (d *QuasarDetector) Detect(now float64, tasks []*MapTask) []int {
	if d.lastTime > 0 && now > d.lastTime {
		dt := now - d.lastTime
		alpha := 1 - math.Exp(-dt/emaTauSecs)
		for _, mt := range tasks {
			p := mt.progress / mt.Work
			inst := (p - d.lastProg[mt.ID]) / dt
			if _, ok := d.rates[mt.ID]; !ok {
				d.rates[mt.ID] = inst
			} else {
				d.rates[mt.ID] += alpha * (inst - d.rates[mt.ID])
			}
		}
	}
	for _, mt := range tasks {
		d.lastProg[mt.ID] = mt.progress / mt.Work
	}
	d.lastTime = now

	var out []int
	// Complete finished probes.
	for id, doneAt := range d.probing {
		if now >= doneAt {
			delete(d.probing, id)
			// The in-place interference reclassification confirms tasks
			// whose slowdown is real (always true for injected
			// stragglers; the 20% deviation check suppresses noise).
			for _, mt := range tasks {
				if mt.ID == id && mt.Straggler && !d.flagged[id] {
					d.flagged[id] = true
					out = append(out, id)
				}
			}
		}
	}
	// d.probing is a map: sort so same-tick detections report in a
	// seed-stable order.
	slices.Sort(out)
	// Start probes on new suspects: instantaneous rate below 50% of the
	// median rate (TaskTracker counters expose rates immediately).
	var rs []float64
	for _, mt := range tasks {
		if mt.progress < mt.Work {
			rs = append(rs, d.rates[mt.ID])
		}
	}
	med := median(rs)
	if med <= 0 {
		return out
	}
	for _, mt := range tasks {
		if d.flagged[mt.ID] || mt.progress >= mt.Work {
			continue
		}
		if _, busy := d.probing[mt.ID]; busy {
			continue
		}
		if d.rates[mt.ID] < 0.5*med {
			d.probing[mt.ID] = now + d.ProbeSecs
		}
	}
	return out
}

// StragglerResult summarizes one detector's run.
type StragglerResult struct {
	Detector string
	// MeanDetectionSecs is the average latency from straggle onset to
	// detection, over detected stragglers.
	MeanDetectionSecs float64
	// DetectedFrac is the fraction of true stragglers detected before the
	// job finished.
	DetectedFrac float64
	// FalsePositives counts flagged healthy tasks.
	FalsePositives int
}

// RunStragglerStudy simulates a job of n map tasks on a dtSecs grid with
// the given fraction of stragglers and measures each detector's detection
// latency. All detectors observe the same task progress.
func RunStragglerStudy(n int, stragglerFrac, slowFactor float64, detectors []StragglerDetector, rng *sim.RNG) []StragglerResult {
	makeTasks := func() []*MapTask {
		tasks := make([]*MapTask, n)
		for i := range tasks {
			tasks[i] = &MapTask{
				ID:   i,
				Work: 100,
				Rate: rng.Uniform(0.9, 1.1),
			}
		}
		// Stragglers begin slowing partway through.
		for _, i := range rng.Perm(n)[:int(float64(n)*stragglerFrac)] {
			tasks[i].Straggler = true
			tasks[i].OnsetSecs = rng.Uniform(10, 30)
			tasks[i].SlowFactor = slowFactor
		}
		return tasks
	}

	var results []StragglerResult
	for _, det := range detectors {
		tasks := makeTasks()
		detectAt := map[int]float64{}
		fp := 0
		const dt = 1.0
		for now := dt; now < 500; now += dt {
			running := false
			for _, mt := range tasks {
				if mt.progress < mt.Work {
					mt.progress += mt.rateAt(now) * dt
					running = true
				}
			}
			for _, id := range det.Detect(now, tasks) {
				if tasks[id].Straggler {
					if _, dup := detectAt[id]; !dup {
						detectAt[id] = now - tasks[id].OnsetSecs
					}
				} else {
					fp++
				}
			}
			if !running {
				break
			}
		}
		sum, cnt, total := 0.0, 0, 0
		for _, mt := range tasks {
			if mt.Straggler {
				total++
				if lat, ok := detectAt[mt.ID]; ok {
					sum += math.Max(lat, 0)
					cnt++
				}
			}
		}
		res := StragglerResult{Detector: det.Name(), FalsePositives: fp}
		if cnt > 0 {
			res.MeanDetectionSecs = sum / float64(cnt)
		}
		if total > 0 {
			res.DetectedFrac = float64(cnt) / float64(total)
		}
		results = append(results, res)
	}
	return results
}
