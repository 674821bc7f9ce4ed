package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"sort"
	"strings"
)

// The Chrome export renders the trace in the trace_event JSON format loadable
// by Perfetto and chrome://tracing: one process, one named thread (track) per
// server and per workload, sync spans as B/E, placements as overlapping async
// b/e pairs, counters as C. Timestamps convert from sim seconds to the
// format's microseconds.

// chromeEvent is one trace_event record. Field order fixes the output bytes.
type chromeEvent struct {
	Name string     `json:"name"`
	Cat  string     `json:"cat,omitempty"`
	Ph   string     `json:"ph"`
	Ts   float64    `json:"ts"`
	Pid  int        `json:"pid"`
	Tid  int        `json:"tid"`
	ID   string     `json:"id,omitempty"`
	Args chromeArgs `json:"args,omitempty"`
}

// chromeArgs renders an ordered Arg slice through the JSONL encoder's
// appendArgs, so a payload reads the same in both exports.
type chromeArgs []Arg

// MarshalJSON implements json.Marshaler.
func (a chromeArgs) MarshalJSON() ([]byte, error) { return appendArgs(nil, a) }

// trackOrder sorts tracks into stable display order: the manager and cluster
// singletons first, then servers by ID, then workloads, then the rest —
// alphabetical within each group. (Server IDs are zero-padded nowhere, so the
// numeric-aware comparison below keeps server/2 before server/10.)
func trackOrder(tracks []string) []string {
	out := append([]string(nil), tracks...)
	group := func(tr string) int {
		switch {
		case !strings.Contains(tr, "/"):
			return 0
		case strings.HasPrefix(tr, "server/"):
			return 1
		case strings.HasPrefix(tr, "workload/"):
			return 2
		}
		return 3
	}
	sort.Slice(out, func(i, j int) bool {
		gi, gj := group(out[i]), group(out[j])
		if gi != gj {
			return gi < gj
		}
		a, b := out[i], out[j]
		if gi == 1 { // numeric server IDs
			if la, lb := len(a), len(b); la != lb {
				return la < lb
			}
		}
		return a < b
	})
	return out
}

// WriteChromeTrace writes the trace_event JSON document to w.
func WriteChromeTrace(w io.Writer, t *Tracer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(`{"displayTimeUnit":"ms","traceEvents":[`); err != nil {
		return err
	}
	first := true
	write := func(ev chromeEvent) error {
		if !first {
			if err := bw.WriteByte(','); err != nil {
				return err
			}
		}
		first = false
		b, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		_, err = bw.Write(b)
		return err
	}

	const pid = 1
	if err := write(chromeEvent{Name: "process_name", Ph: "M", Pid: pid,
		Args: chromeArgs{{Key: "name", Val: "quasar"}}}); err != nil {
		return err
	}
	tids := make(map[string]int)
	for i, tr := range trackOrder(t.Tracks()) {
		tids[tr] = i
		if err := write(chromeEvent{Name: "thread_name", Ph: "M", Pid: pid, Tid: i,
			Args: chromeArgs{{Key: "name", Val: tr}}}); err != nil {
			return err
		}
		if err := write(chromeEvent{Name: "thread_sort_index", Ph: "M", Pid: pid, Tid: i,
			Args: chromeArgs{{Key: "sort_index", Val: i}}}); err != nil {
			return err
		}
	}
	for i := range t.Events() {
		ev := &t.Events()[i]
		if err := write(chromeEvent{
			Name: ev.Name, Cat: ev.Cat, Ph: string(ev.Phase),
			Ts: ev.Time * 1e6, Pid: pid, Tid: tids[ev.Track],
			ID: ev.ID, Args: chromeArgs(ev.Args),
		}); err != nil {
			return err
		}
	}
	if _, err := bw.WriteString("]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}
