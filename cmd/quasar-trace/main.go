// Command quasar-trace summarizes a JSONL trace written by quasar-sim
// -trace. It reconstructs scheduling decisions and task lifecycles from the
// log alone and answers the questions an operator asks of a run:
//
//	quasar-trace run.jsonl                     # run summary
//	quasar-trace -task hadoop-0007 run.jsonl   # task timeline
//	quasar-trace -task hadoop-0007 -server 12 run.jsonl
//	                                           # why did it land on server 12?
//	quasar-trace -task memcached-0003 -qos run.jsonl
//	                                           # why did it miss its QoS target?
//	quasar-trace -alerts run.jsonl             # SLO alert timeline + why each fired
//	quasar-trace -since 3000 -until 4000 run.jsonl
//	                                           # restrict any view to a sim-time window
//	quasar-trace -follow 127.0.0.1:7717        # tail a live daemon's trace stream
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"sort"
	"strings"

	"quasar/internal/obs"
)

func main() {
	var (
		task    = flag.String("task", "", "focus on one workload ID")
		server  = flag.Int("server", -1, "with -task: explain the placement on this server")
		qos     = flag.Bool("qos", false, "with -task: explain QoS misses")
		alerts  = flag.Bool("alerts", false, "SLO alert timeline with the burn math behind each fire")
		since   = flag.Float64("since", math.Inf(-1), "drop events before this sim time (seconds)")
		until   = flag.Float64("until", math.Inf(1), "drop events after this sim time (seconds)")
		follow  = flag.Bool("follow", false, "treat the argument as a live daemon address and tail GET /v1/trace/stream")
		followN = flag.Int("n", 0, "with -follow: stop after this many events (0 streams until the daemon ends the run)")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		_, _ = fmt.Fprintln(os.Stderr, "usage: quasar-trace [-task ID [-server N | -qos]] [-alerts] [-since T] [-until T] trace.jsonl")
		_, _ = fmt.Fprintln(os.Stderr, "       quasar-trace -follow [-n N] daemon-addr")
		os.Exit(2)
	}
	if *follow {
		if err := followStream(flag.Arg(0), *followN, os.Stdout); err != nil {
			_, _ = fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		return
	}
	f, err := os.Open(flag.Arg(0))
	if err != nil {
		_, _ = fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
	defer func() { _ = f.Close() }()

	if *task == "" && !*alerts {
		if err := summarize(f, *since, *until, os.Stdout); err != nil {
			_, _ = fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		return
	}

	var evs []obs.RawEvent
	hdr, err := obs.ScanJSONL(f, func(ev *obs.RawEvent) error {
		evs = append(evs, *ev)
		return nil
	}, nil)
	if err != nil {
		_, _ = fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
	reportControls(os.Stdout, hdr)
	evs = clipWindow(evs, *since, *until)

	switch {
	case *alerts:
		alertTimeline(evs, *task)
	case *task != "" && *server >= 0:
		explainPlacement(evs, *task, *server)
	case *task != "" && *qos:
		explainQoS(evs, *task)
	default:
		timeline(evs, *task)
	}
}

// summarize runs the summary view: it aggregates incrementally over
// ScanJSONL, holding one line at a time — a multi-gigabyte streamed trace
// summarizes in constant memory. Split from main so window-filter tests can
// drive it against a file and capture the output.
func summarize(r io.Reader, since, until float64, w io.Writer) error {
	var sum summary
	hdr, err := obs.ScanJSONL(r, func(ev *obs.RawEvent) error {
		if ev.T < since || ev.T > until {
			return nil
		}
		sum.add(ev)
		return nil
	}, nil)
	if err != nil {
		return err
	}
	reportControls(w, hdr)
	sum.report(w)
	return nil
}

// reportControls tells the reader when the recording run capped schedule
// decisions' candidate rankings, from the trace header, so a ranking that
// stops at K entries reads as capped rather than as all the servers there
// were.
func reportControls(w io.Writer, h *obs.Header) {
	if h != nil && h.TopK > 0 {
		_, _ = fmt.Fprintf(w, "recorded with trace controls: top-k candidates=%d\n", h.TopK)
	}
}

// clipWindow keeps the events inside [since, until]. Events are time-ordered
// in the log, so the result stays contiguous.
func clipWindow(evs []obs.RawEvent, since, until float64) []obs.RawEvent {
	lo := sort.Search(len(evs), func(i int) bool { return evs[i].T >= since })
	hi := sort.Search(len(evs), func(i int) bool { return evs[i].T > until })
	return evs[lo:hi]
}

// decisionOf decodes the ScheduleDecision payload of a sched decision event.
func decisionOf(ev *obs.RawEvent) (*obs.ScheduleDecision, bool) {
	if ev.Cat != "sched" || ev.Name != "decision" {
		return nil, false
	}
	var w struct {
		Decision obs.ScheduleDecision `json:"decision"`
	}
	if err := json.Unmarshal(ev.Args, &w); err != nil {
		return nil, false
	}
	return &w.Decision, true
}

func argsOf(ev *obs.RawEvent) map[string]any {
	m := map[string]any{}
	_ = json.Unmarshal(ev.Args, &m)
	return m
}

// touches reports whether an event belongs to a workload: on its own track,
// a placement span named after it, or a decision about it.
func touches(ev *obs.RawEvent, task string) bool {
	if ev.Track == "workload/"+task {
		return true
	}
	if strings.HasPrefix(ev.Track, "server/") && ev.Name == task {
		return true
	}
	if d, ok := decisionOf(ev); ok {
		return d.Workload == task
	}
	if a := argsOf(ev); a["workload"] == task {
		return true
	}
	return false
}

// summary accumulates the run-summary aggregates one event at a time, so the
// streaming path never holds the trace in memory.
type summary struct {
	count              int
	minT, maxT         float64
	byName             map[string]int
	workloads, servers map[string]bool
	decisions, placed  int
	chaosCount, detect map[string]int
	readmits, reused   int
	deferred           int
	delaySum           float64
	serveApplied       int
	serveErrors        int
	serveReasons       map[string]int
}

func (s *summary) add(ev *obs.RawEvent) {
	if s.byName == nil {
		s.byName = map[string]int{}
		s.workloads, s.servers = map[string]bool{}, map[string]bool{}
		s.chaosCount, s.detect = map[string]int{}, map[string]int{}
		s.serveReasons = map[string]int{}
		s.minT = ev.T
	}
	s.count++
	s.maxT = ev.T
	s.byName[ev.Name]++
	if strings.HasPrefix(ev.Track, "workload/") {
		s.workloads[strings.TrimPrefix(ev.Track, "workload/")] = true
	}
	if strings.HasPrefix(ev.Track, "server/") {
		s.servers[ev.Track] = true
	}
	if d, ok := decisionOf(ev); ok {
		s.decisions++
		if d.Outcome == obs.OutcomePlaced {
			s.placed++
		}
	}
	switch ev.Cat {
	case "serve":
		switch ev.Name {
		case "serve.apply":
			s.serveApplied++
		case "serve.apply-error":
			s.serveErrors++
			if r, ok := argsOf(ev)["error"].(string); ok && r != "" {
				s.serveReasons[r]++
			}
		}
	case "chaos":
		s.chaosCount[ev.Name]++
	case "detect":
		s.detect[ev.Name]++
	case "recover":
		switch ev.Name {
		case "re-admit":
			s.readmits++
			a := argsOf(ev)
			if d, ok := a["delay_secs"].(float64); ok {
				s.delaySum += d
			}
			if r, ok := a["reused_signature"].(bool); ok && r {
				s.reused++
			}
		case "readmit-defer":
			s.deferred++
		}
	}
}

func (s *summary) report(w io.Writer) {
	if s.count == 0 {
		_, _ = fmt.Fprintln(w, "empty trace")
		return
	}
	_, _ = fmt.Fprintf(w, "events: %d  span: %.0fs..%.0fs\n", s.count, s.minT, s.maxT)
	_, _ = fmt.Fprintf(w, "workloads: %d  servers touched: %d\n", len(s.workloads), len(s.servers))
	_, _ = fmt.Fprintf(w, "schedule decisions: %d (%d placed, %d rejected)\n", s.decisions, s.placed, s.decisions-s.placed)
	if s.serveApplied > 0 || s.serveErrors > 0 {
		_, _ = fmt.Fprintf(w, "serve admissions: %d applied, %d apply errors\n", s.serveApplied, s.serveErrors)
		for _, rc := range topReasons(s.serveReasons, 5) {
			_, _ = fmt.Fprintf(w, "  apply error %dx: %s\n", rc.n, rc.reason)
		}
	}
	if len(s.chaosCount) > 0 || len(s.detect) > 0 || s.readmits > 0 || s.deferred > 0 {
		_, _ = fmt.Fprintf(w, "faults injected: %d crashes, %d slowdowns, %d partitions (%d restarts, %d heals)\n",
			s.chaosCount["fault-crash"], s.chaosCount["fault-slowdown"], s.chaosCount["fault-partition"],
			s.chaosCount["fault-restart"], s.chaosCount["fault-heal"])
		_, _ = fmt.Fprintf(w, "detector: %d suspected, %d declared dead, %d restored; %d workload displacements\n",
			s.detect["hb-suspect"], s.detect["hb-dead"], s.detect["hb-restored"], s.detect["displaced"])
		_, _ = fmt.Fprintf(w, "recovery: %d re-admissions (%d reusing the cached signature), %d deferred",
			s.readmits, s.reused, s.deferred)
		if s.readmits > 0 {
			_, _ = fmt.Fprintf(w, "; MTTR %.0fs", s.delaySum/float64(s.readmits))
		}
		_, _ = fmt.Fprintln(w)
	}
	names := make([]string, 0, len(s.byName))
	for n := range s.byName {
		// Placement spans are named after workloads; fold them into one row.
		if s.workloads[n] {
			continue
		}
		names = append(names, n)
	}
	sort.Strings(names)
	_, _ = fmt.Fprintln(w, "event counts:")
	for _, n := range names {
		_, _ = fmt.Fprintf(w, "  %-18s %d\n", n, s.byName[n])
	}
}

// reasonCount is one apply-error reason with its occurrence count.
type reasonCount struct {
	reason string
	n      int
}

// topReasons ranks reasons by count (ties alphabetical) and keeps the top k.
func topReasons(m map[string]int, k int) []reasonCount {
	out := make([]reasonCount, 0, len(m))
	for r, n := range m {
		out = append(out, reasonCount{reason: r, n: n})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].n != out[j].n {
			return out[i].n > out[j].n
		}
		return out[i].reason < out[j].reason
	})
	if len(out) > k {
		out = out[:k]
	}
	return out
}

func timeline(evs []obs.RawEvent, task string) {
	found := false
	for i := range evs {
		ev := &evs[i]
		if !touches(ev, task) {
			continue
		}
		found = true
		switch {
		case ev.Name == task && ev.Ph == "b":
			a := argsOf(ev)
			fmt.Printf("%9.1fs  placed on %s  %v cores / %v GB (%v)\n",
				ev.T, strings.TrimPrefix(ev.Track, "server/"), a["cores"], a["mem_gb"], a["platform"])
		case ev.Name == task && ev.Ph == "e":
			fmt.Printf("%9.1fs  removed from %s\n", ev.T, strings.TrimPrefix(ev.Track, "server/"))
		case ev.Cat == "detect" && ev.Name == "displaced":
			a := argsOf(ev)
			fmt.Printf("%9.1fs  displaced from server %v (%v, %v nodes left)\n",
				ev.T, a["server"], a["reason"], a["remaining_nodes"])
		case ev.Cat == "recover" && ev.Name == "re-admit":
			a := argsOf(ev)
			sig := "fresh classification"
			if r, ok := a["reused_signature"].(bool); ok && r {
				sig = "cached signature, no re-profiling"
			}
			fmt.Printf("%9.1fs  re-admitted via %v after %vs (%s, %v nodes)\n",
				ev.T, a["how"], a["delay_secs"], sig, a["nodes"])
		case ev.Cat == "recover" && ev.Name == "readmit-defer":
			a := argsOf(ev)
			fmt.Printf("%9.1fs  re-admission deferred: cluster degraded (%v live servers, %v free cores)\n",
				ev.T, a["live_servers"], a["live_free_cores"])
		default:
			if d, ok := decisionOf(ev); ok {
				fmt.Printf("%9.1fs  schedule: %s (need %.3g, %d candidates, picked %v)\n",
					ev.T, d.Outcome, d.NeedPerf, len(d.Candidates), d.PickedServers())
				continue
			}
			fmt.Printf("%9.1fs  %s", ev.T, ev.Name)
			if a := argsOf(ev); len(a) > 0 && ev.Name != "submit" {
				b, _ := json.Marshal(a)
				fmt.Printf("  %s", b)
			}
			fmt.Println()
		}
	}
	if !found {
		fmt.Printf("no events for workload %q\n", task)
	}
}

// alertTimeline lists every SLO alert transition in the (possibly clipped)
// trace, replaying the burn arithmetic the engine recorded at fire time so an
// operator can verify why each alert fired without re-running the simulation.
// With task set, only that workload's alerts are shown.
func alertTimeline(evs []obs.RawEvent, task string) {
	wl := func(ev *obs.RawEvent) string { return strings.TrimPrefix(ev.Track, "workload/") }
	shown, fires, resolves := 0, 0, 0
	for i := range evs {
		ev := &evs[i]
		if ev.Cat != "slo" {
			continue
		}
		if task != "" && wl(ev) != task {
			continue
		}
		a := argsOf(ev)
		switch ev.Name {
		case "alert_fire":
			fires++
			shown++
			fmt.Printf("%9.1fs  FIRE    %-6v %-18s goal=%.2f budget=%.3g\n",
				ev.T, a["rule"], wl(ev), num(a["goal"]), num(a["budget"]))
			fmt.Printf("            why: long window %vs had %vs bad -> burn %.1fx >= %vx threshold\n",
				a["window_long_secs"], a["bad_secs_long"], num(a["burn_long"]), a["threshold"])
			fmt.Printf("                 short window %vs had %vs bad -> burn %.1fx >= %vx threshold\n",
				a["window_short_secs"], a["bad_secs_short"], num(a["burn_short"]), a["threshold"])
		case "alert_resolve":
			resolves++
			shown++
			reason := ""
			if r, ok := a["reason"]; ok {
				reason = fmt.Sprintf(" (%v)", r)
			}
			fmt.Printf("%9.1fs  RESOLVE %-6v %-18s after %.0fs, peak burn %.1fx%s\n",
				ev.T, a["rule"], wl(ev), num(a["duration_secs"]), num(a["peak_burn"]), reason)
		}
	}
	if shown == 0 {
		if task != "" {
			fmt.Printf("no SLO alerts for workload %q in this window\n", task)
		} else {
			fmt.Println("no SLO alerts in this window")
		}
		return
	}
	fmt.Printf("%d fires, %d resolves", fires, resolves)
	if open := fires - resolves; open > 0 {
		fmt.Printf(" (%d still active at window end)", open)
	}
	fmt.Println()
}

// num coerces a decoded JSON arg to float64 for formatted output.
func num(v any) float64 {
	f, _ := v.(float64)
	return f
}

func explainPlacement(evs []obs.RawEvent, task string, server int) {
	var last *obs.ScheduleDecision
	var at float64
	for i := range evs {
		ev := &evs[i]
		d, ok := decisionOf(ev)
		if !ok || d.Workload != task {
			continue
		}
		for _, p := range d.Picks {
			if p.Server == server {
				last, at = d, ev.T
			}
		}
	}
	if last == nil {
		fmt.Printf("no decision placed %s on server %d\n", task, server)
		return
	}
	fmt.Printf("at %.1fs, %s needed perf %.3g (%.3g with margin); server %d was picked.\n",
		at, task, last.NeedPerf, last.Want, server)
	fmt.Printf("candidate ranking (quality = platform affinity x interference):\n")
	fmt.Printf("  %-7s %-10s %10s %6s %8s %6s %6s %s\n",
		"server", "platform", "quality", "cores", "mem", "evict", "press", "")
	for i, c := range last.Candidates {
		mark := ""
		if c.Picked {
			mark = "<- picked"
		}
		if !c.Compatible {
			mark += " (incompatible: quality penalized 20x)"
		}
		fmt.Printf("  %-7d %-10s %10.4g %6d %8.1f %6d %6.2f %s\n",
			c.Server, c.Platform, c.Quality, c.FreeCores, c.FreeMemGB, c.Evictable, c.Pressure, mark)
		if i >= 14 && !c.Picked {
			fmt.Printf("  ... (%d more candidates)\n", len(last.Candidates)-i-1)
			break
		}
	}
	if c, ok := last.CandidateFor(server); ok {
		rank := 1
		for _, o := range last.Candidates {
			if o.Quality > c.Quality {
				rank++
			}
		}
		fmt.Printf("server %d ranked #%d of %d by estimated quality %.4g for this workload.\n",
			server, rank, len(last.Candidates), c.Quality)
	}
	if len(last.Evictions) > 0 {
		fmt.Printf("required evicting best-effort residents: %v\n", last.Evictions)
	}
}

// followStream tails a live serve daemon's GET /v1/trace/stream, printing
// each deterministic trace event as its epoch seals. Control lines the stream
// layer injects ({"seq":0,"stream_dropped":N}) become loud notices: the
// subscriber buffer is bounded, so a slow terminal loses whole epochs, never
// silently. n > 0 asks the server to end the stream after n events.
func followStream(addr string, n int, w io.Writer) error {
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	url := addr + "/v1/trace/stream"
	if n > 0 {
		url += fmt.Sprintf("?n=%d", n)
	}
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("stream returned %s", resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(strings.TrimSpace(string(line))) == 0 {
			continue
		}
		var probe struct {
			Trace         string  `json:"trace"`
			Metric        string  `json:"metric"`
			StreamDropped *int64  `json:"stream_dropped"`
			Name          string  `json:"name"`
			T             float64 `json:"t"`
		}
		if err := json.Unmarshal(line, &probe); err != nil {
			return fmt.Errorf("corrupt stream line: %w", err)
		}
		switch {
		case probe.Trace != "":
			var h obs.Header
			_ = json.Unmarshal(line, &h)
			_, _ = fmt.Fprintf(w, "attached to %s\n", addr)
			reportControls(w, &h)
		case probe.StreamDropped != nil:
			_, _ = fmt.Fprintf(w, "!! stream fell behind: %d events dropped so far (bounded subscriber buffer)\n", *probe.StreamDropped)
		case probe.Metric != "":
			var m obs.RawMetric
			if err := json.Unmarshal(line, &m); err == nil {
				_, _ = fmt.Fprintf(w, "metric %s = %s\n", m.Name, m.Value)
			}
		default:
			var ev obs.RawEvent
			if err := json.Unmarshal(line, &ev); err != nil {
				return fmt.Errorf("corrupt stream event: %w", err)
			}
			printStreamEvent(w, &ev)
		}
	}
	return sc.Err()
}

// printStreamEvent renders one live event in the timeline style.
func printStreamEvent(w io.Writer, ev *obs.RawEvent) {
	_, _ = fmt.Fprintf(w, "%10.1fs  %-8s %s", ev.T, ev.Cat, ev.Name)
	if len(ev.Args) > 0 && string(ev.Args) != "null" && string(ev.Args) != "{}" {
		_, _ = fmt.Fprintf(w, "  %s", ev.Args)
	}
	_, _ = fmt.Fprintln(w)
}

func explainQoS(evs []obs.RawEvent, task string) {
	misses := 0
	for i := range evs {
		ev := &evs[i]
		if ev.Track != "workload/"+task || ev.Name != "qos-miss" {
			continue
		}
		misses++
		a := argsOf(ev)
		fmt.Printf("%9.1fs  QoS miss: offered %v QPS vs capacity %v QPS, p99 %v us\n",
			ev.T, a["offered_qps"], a["capacity_qps"], a["p99_us"])
		// The manager's reaction: the next scale/reschedule action for this
		// task after the miss.
		for j := i + 1; j < len(evs); j++ {
			nx := &evs[j]
			if nx.Cat != "quasar" || (nx.Name != "scale" && nx.Name != "reschedule") {
				continue
			}
			na := argsOf(nx)
			dec, hasDec := na["decision"].(map[string]any)
			if (hasDec && dec["workload"] == task) || na["workload"] == task {
				if hasDec {
					fmt.Printf("%9.1fs    -> manager %s: %v\n", nx.T, nx.Name, dec["actions"])
				} else {
					fmt.Printf("%9.1fs    -> manager %s\n", nx.T, nx.Name)
				}
				break
			}
		}
	}
	if misses == 0 {
		fmt.Printf("%s never transitioned to a QoS miss in this trace\n", task)
	} else {
		fmt.Printf("%d miss transition(s) for %s\n", misses, task)
	}
}
