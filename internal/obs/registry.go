package obs

import (
	"quasar/internal/metrics"
)

// metricKind discriminates registry entries.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindSeries
	kindHistogram
	kindHeatmap
)

// Counter is a monotonically increasing value. A nil Counter (from a nil
// registry) is a no-op, so instrumented code never branches on tracing state.
type Counter struct {
	v float64
}

// Add increases the counter.
func (c *Counter) Add(d float64) {
	if c == nil {
		return
	}
	c.v += d
}

// Inc increases the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current value (0 for nil).
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	return c.v
}

// entry is one registered metric.
type entry struct {
	name string
	// label is the rendered inner label set (e.g. `endpoint="submit"`),
	// empty for unlabeled metrics. Entries sharing a name but differing in
	// label are distinct registrations; the Prometheus renderer groups them
	// under one HELP/TYPE header.
	label   string
	help    string
	kind    metricKind
	counter *Counter
	gauge   func() float64
	series  *metrics.Series
	hist    *metrics.Histogram
	heat    *metrics.Heatmap
}

// key is the registry identity: name alone, or name plus label set.
func (e *entry) key() string {
	if e.label == "" {
		return e.name
	}
	return e.name + "{" + e.label + "}"
}

// Registry holds counters, gauges, and references to internal/metrics
// containers, in registration order — the deterministic order every exporter
// walks. It unifies the tracer's own counters with the time series the
// runtime already maintains, so one snapshot covers both.
type Registry struct {
	entries []entry
	byName  map[string]int
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]int)}
}

// add registers an entry, replacing an existing one with the same name and
// label set (the registration order of the first occurrence is kept, so
// re-wiring a metric does not reorder snapshots).
func (r *Registry) add(e entry) {
	k := e.key()
	if i, ok := r.byName[k]; ok {
		r.entries[i] = e
		return
	}
	r.byName[k] = len(r.entries)
	r.entries = append(r.entries, e)
}

// Counter registers (or returns the existing) named counter. Nil-safe: a nil
// registry returns a nil Counter whose methods are no-ops.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	if i, ok := r.byName[name]; ok && r.entries[i].kind == kindCounter {
		return r.entries[i].counter
	}
	c := &Counter{}
	r.add(entry{name: name, help: help, kind: kindCounter, counter: c})
	return c
}

// LabeledCounter registers (or returns the existing) counter under a name
// and one label pair: key is the label name, value its raw value, which the
// registry escapes (e.g. key "endpoint", value "submit" renders
// `endpoint="submit"`). Entries sharing a name are grouped under one
// HELP/TYPE header by the snapshot renderer. Nil-safe.
func (r *Registry) LabeledCounter(name, key, value, help string) *Counter {
	if r == nil {
		return nil
	}
	label := labelPair(key, value)
	k := name + "{" + label + "}"
	if i, ok := r.byName[k]; ok && r.entries[i].kind == kindCounter {
		return r.entries[i].counter
	}
	c := &Counter{}
	r.add(entry{name: name, label: label, help: help, kind: kindCounter, counter: c})
	return c
}

// Gauge registers a gauge read through fn at snapshot time.
func (r *Registry) Gauge(name, help string, fn func() float64) {
	if r == nil {
		return
	}
	r.add(entry{name: name, help: help, kind: kindGauge, gauge: fn})
}

// Series registers a metrics.Series; snapshots export its last value and
// point count, and the JSONL exporter embeds the full series.
func (r *Registry) Series(name, help string, s *metrics.Series) {
	if r == nil || s == nil {
		return
	}
	r.add(entry{name: name, help: help, kind: kindSeries, series: s})
}

// Histogram registers a metrics.Histogram (the bounded-memory streaming
// percentile tracker); snapshots export count and p50/p90/p99 quantiles,
// and the JSONL exporter embeds the full bucket state.
func (r *Registry) Histogram(name, help string, h *metrics.Histogram) {
	if r == nil || h == nil {
		return
	}
	r.add(entry{name: name, help: help, kind: kindHistogram, hist: h})
}

// LabeledHistogram registers a metrics.Histogram under a name and one label
// pair (see LabeledCounter for the label contract).
func (r *Registry) LabeledHistogram(name, key, value, help string, h *metrics.Histogram) {
	if r == nil || h == nil {
		return
	}
	r.add(entry{name: name, label: labelPair(key, value), help: help, kind: kindHistogram, hist: h})
}

// labelPair renders one Prometheus label pair, its value escaped.
func labelPair(key, value string) string {
	return key + `="` + promLabelValue(value) + `"`
}

// Heatmap registers a metrics.Heatmap; snapshots export its overall mean.
func (r *Registry) Heatmap(name, help string, h *metrics.Heatmap) {
	if r == nil || h == nil {
		return
	}
	r.add(entry{name: name, help: help, kind: kindHeatmap, heat: h})
}

// Len returns the number of registered metrics.
func (r *Registry) Len() int {
	if r == nil {
		return 0
	}
	return len(r.entries)
}
