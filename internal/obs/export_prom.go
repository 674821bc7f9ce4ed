package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// The Prometheus export is a point-in-time text snapshot of the registry in
// the exposition format: # HELP / # TYPE headers followed by samples, walked
// in registration order. Series export their last value, mean, and point
// count; histograms export summary quantiles; heatmaps their overall
// mean. Wall-clock scrape loops do not exist in the simulation — the snapshot
// is taken once, at the sim time the caller chooses (normally end of run).

// promFloat renders a value the way Prometheus expects (NaN for empty
// histograms stays literal "NaN").
func promFloat(v float64) string {
	if math.IsNaN(v) {
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// promHelp escapes HELP text per the exposition format: backslash and
// newline must be escaped (a raw newline would terminate the comment line
// and corrupt the scrape).
func promHelp(s string) string {
	var b strings.Builder
	for _, r := range s {
		switch r {
		case '\\':
			_, _ = b.WriteString(`\\`)
		case '\n':
			_, _ = b.WriteString(`\n`)
		default:
			_, _ = b.WriteRune(r)
		}
	}
	return b.String()
}

// promLabelValue escapes a label value per the exposition format: backslash,
// double quote, and newline.
func promLabelValue(s string) string {
	var b strings.Builder
	for _, r := range s {
		switch r {
		case '\\':
			_, _ = b.WriteString(`\\`)
		case '"':
			_, _ = b.WriteString(`\"`)
		case '\n':
			_, _ = b.WriteString(`\n`)
		default:
			_, _ = b.WriteRune(r)
		}
	}
	return b.String()
}

// promName sanitizes a metric name to the [a-zA-Z_:][a-zA-Z0-9_:]* charset.
func promName(name string) string {
	var b strings.Builder
	for i, r := range name {
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(i > 0 && r >= '0' && r <= '9')
		if ok {
			_, _ = b.WriteRune(r)
		} else {
			_ = b.WriteByte('_')
		}
	}
	return b.String()
}

// promWriter renders registry entries in the exposition format, emitting one
// HELP/TYPE header per metric name so labeled entries sharing a name form a
// single sample group.
type promWriter struct {
	bw     *bufio.Writer
	headed map[string]bool
}

func newPromWriter(w io.Writer) *promWriter {
	return &promWriter{bw: bufio.NewWriter(w), headed: make(map[string]bool)}
}

func (p *promWriter) head(name, help, typ string) {
	if p.headed[name] {
		return
	}
	p.headed[name] = true
	if help != "" {
		_, _ = fmt.Fprintf(p.bw, "# HELP %s %s\n", name, promHelp(help))
	}
	_, _ = fmt.Fprintf(p.bw, "# TYPE %s %s\n", name, typ)
}

func (p *promWriter) sample(name, labels string, v float64) {
	_, _ = fmt.Fprintf(p.bw, "%s%s %s\n", name, labels, promFloat(v))
}

// labels composes the sample's label braces from the entry's label set and an
// optional extra pair (the quantile label of summary samples).
func (p *promWriter) labels(e *entry, extra string) string {
	switch {
	case e.label == "" && extra == "":
		return ""
	case e.label == "":
		return "{" + extra + "}"
	case extra == "":
		return "{" + e.label + "}"
	default:
		return "{" + e.label + "," + extra + "}"
	}
}

// entry renders one registry entry.
func (p *promWriter) entry(e *entry) {
	name := promName(e.name)
	switch e.kind {
	case kindCounter:
		p.head(name, e.help, "counter")
		p.sample(name, p.labels(e, ""), e.counter.Value())
	case kindGauge:
		p.head(name, e.help, "gauge")
		p.sample(name, p.labels(e, ""), e.gauge())
	case kindSeries:
		p.head(name, e.help, "gauge")
		last := 0.0
		if n := e.series.Len(); n > 0 {
			last = e.series.Vals[n-1]
		}
		p.sample(name+"_last", p.labels(e, ""), last)
		p.sample(name+"_mean", p.labels(e, ""), e.series.Mean())
		p.sample(name+"_points", p.labels(e, ""), float64(e.series.Len()))
	case kindHistogram:
		p.head(name, e.help, "summary")
		for _, q := range []float64{50, 90, 99} {
			p.sample(name, p.labels(e, quantileLabel(q)), e.hist.Percentile(q))
		}
		p.sample(name+"_count", p.labels(e, ""), float64(e.hist.N()))
		p.sample(name+"_buckets", p.labels(e, ""), float64(e.hist.Buckets()))
	case kindHeatmap:
		p.head(name, e.help, "gauge")
		p.sample(name+"_mean", p.labels(e, ""), e.heat.MeanOverall())
		p.sample(name+"_rows", p.labels(e, ""), float64(e.heat.Rows))
		p.sample(name+"_samples", p.labels(e, ""), float64(len(e.heat.Times)))
	}
}

// quantileLabel renders the inner quantile pair of a summary sample.
func quantileLabel(q float64) string {
	return fmt.Sprintf(`quantile="0.%d"`, int(q))
}

// WritePromSnapshot writes the tracer's registry snapshot, plus the tracer's
// own event totals, to w.
func WritePromSnapshot(w io.Writer, t *Tracer) error {
	p := newPromWriter(w)
	p.head("obs_events_total", "trace events recorded", "counter")
	p.sample("obs_events_total", "", float64(t.Len()))
	if reg := t.Registry(); reg != nil {
		for i := range reg.entries {
			p.entry(&reg.entries[i])
		}
	}
	return p.bw.Flush()
}

// WritePromRegistry writes a bare registry snapshot to w in the exposition
// format — the renderer behind a wall-clock telemetry registry that lives
// outside any tracer (serve mode's RED metrics). Callers own synchronization
// of the registered containers.
func WritePromRegistry(w io.Writer, reg *Registry) error {
	p := newPromWriter(w)
	if reg != nil {
		for i := range reg.entries {
			p.entry(&reg.entries[i])
		}
	}
	return p.bw.Flush()
}
