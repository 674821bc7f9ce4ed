package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateEventLines = flag.Bool("update-event-lines", false, "rewrite the event-line golden file")

// marshalerPrefix is what encoding/json put in front of an args error when
// the reference's argsObject was a json.Marshaler; appendEventLine reports the
// same error without that wrapper.
const marshalerPrefix = "json: error calling MarshalJSON for type obs.argsObject: "

// checkLine asserts appendEventLine and the reference encoder agree on one
// event: the same bytes, or both an error with the same cause and nothing
// appended. dst starts non-empty so a truncation bug cannot hide at offset 0.
func checkLine(t testing.TB, ev *Event) {
	t.Helper()
	want, wantErr := referenceEventLine(ev)
	const prefix = "earlier line\n"
	got, gotErr := appendEventLine([]byte(prefix), ev)
	if !strings.HasPrefix(string(got), prefix) {
		t.Fatalf("appendEventLine clobbered dst: %q", got)
	}
	got = got[len(prefix):]
	if wantErr != nil {
		if gotErr == nil {
			t.Fatalf("reference fails with %v, appendEventLine wrote %q (event %+v)", wantErr, got, *ev)
		}
		if len(got) != 0 || len(want) != 0 {
			t.Fatalf("failed event left bytes behind: append %q, reference %q", got, want)
		}
		if strings.TrimPrefix(wantErr.Error(), marshalerPrefix) != gotErr.Error() {
			t.Fatalf("error text differs:\n  reference %v\n  append    %v", wantErr, gotErr)
		}
		var wantU, gotU *json.UnsupportedValueError
		if errors.As(wantErr, &wantU) != errors.As(gotErr, &gotU) || (wantU != nil && wantU.Str != gotU.Str) {
			t.Fatalf("unsupported-value cause differs: reference %v, append %v", wantErr, gotErr)
		}
		return
	}
	if gotErr != nil {
		t.Fatalf("appendEventLine fails with %v, reference wrote %q", gotErr, want)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("event line differs:\n  reference %s  append    %s", want, got)
	}
}

// unknownPayload is a struct the encoder has no typed appender for.
type unknownPayload struct {
	A int               `json:"a"`
	B string            `json:"b,omitempty"`
	C map[string]string `json:"c"`
	D *float64          `json:"d"`
}

// namedString and namedFloat are named scalars: not the predeclared types the
// type switch lists, so they take the fallback.
type (
	namedString string
	namedFloat  float64
)

// fullSchedule is a ScheduleDecision with every omitempty field on.
func fullSchedule() ScheduleDecision {
	return ScheduleDecision{
		Workload: "hadoop-0007", NeedPerf: 12.5, Want: 13.125, MaxNodes: 3,
		AcceptPartial: true, MaxCost: 4.75,
		Candidates: []Candidate{
			{Server: 3, Platform: "xeon-e5", Quality: 0.8125, FreeCores: 12, FreeMemGB: 47.5, Evictable: 2, Compatible: true, Pressure: 0.125, Picked: true},
			{Server: 17, Platform: "atom", Quality: 1e-7, FreeCores: 0, FreeMemGB: 0, Evictable: 0, Compatible: false, Pressure: 2.5e21, Picked: false},
		},
		CandidatesDropped: 38,
		Picks:             []NodePick{{Server: 3, Cores: 8, MemGB: 16, EstPerf: 6.75}, {Server: 9, Cores: 4, MemGB: 7.5}},
		EstPerf:           12.75, CostPerHour: 1.92,
		Evictions: []string{"single-node-0031", "single-node-0040"},
		Outcome:   OutcomePlaced,
	}
}

// edgeEvents is the table of encoder edge cases: every rule of the wire format
// the typed appenders re-implement, and every way out of them.
func edgeEvents() []Event {
	ev := func(args ...Arg) Event {
		return Event{Seq: 7, Time: 12.5, Phase: PhaseInstant, Cat: "sched", Name: "edge", Track: "manager", Args: args}
	}
	a := func(k string, v any) Arg { return Arg{Key: k, Val: v} }
	ptr := 2.5

	floats := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 1.0 / 3, 100, 1e6, 123456789, 1 << 53, 1<<53 + 2,
		1e-6, 9.99e-7, 1e-7, 1.5e-9, -1e-7, 1e-10, 1.234e-12, 1e-100,
		1e20, 9.99e20, 1e21, 1.5e21, -1e21, 1e22, 1e100,
		math.SmallestNonzeroFloat64, 2.2250738585072014e-308, 4.9e-322,
		math.MaxFloat64, -math.MaxFloat64, math.MaxInt64, math.MinInt64,
	}
	var out []Event
	for _, f := range floats {
		e := ev(a("v", f), a("vs", []float64{f, -f}))
		e.Time = f
		out = append(out, e)
		d := fullSchedule()
		d.NeedPerf, d.MaxCost, d.Candidates[0].Pressure, d.Picks[1].EstPerf = f, f, f, f
		out = append(out, ev(a("decision", d)),
			ev(a("admit", AdmitDecision{Workload: "w", Class: "c", RefPerf: f, Beta: -f, Tol: []float64{f}, Caused: []float64{}, WorkEst: f, Deadline: -f})),
			ev(a("adjust", AdjustDecision{Workload: "w", Need: f, Measured: -f, Actions: []string{"none"}})))
	}

	// Non-finite floats: a string at the top level, an error anywhere nested
	// (and in the envelope's time).
	for _, f := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		out = append(out, ev(a("p99", f)), ev(a("ok", 1), a("vs", []float64{1, f})),
			ev(a("named", namedFloat(f))), ev(a("boxed", any(&f))))
		e := ev(a("v", 1.0))
		e.Time = f
		out = append(out, e)
		d := fullSchedule()
		d.Candidates[1].Quality = f
		out = append(out, ev(a("decision", d)))
		d = fullSchedule()
		d.CostPerHour = f
		out = append(out, ev(a("decision", d)))
		d = fullSchedule()
		d.Picks[0].MemGB = f
		out = append(out, ev(a("decision", d)),
			ev(a("admit", AdmitDecision{Tol: []float64{0, f}})),
			ev(a("admit", AdmitDecision{Deadline: f})),
			ev(a("adjust", AdjustDecision{Measured: f})))
	}

	// Integers and the other scalar kinds.
	out = append(out,
		ev(a("i", 0), a("min", math.MinInt), a("max", math.MaxInt), a("neg", -42)),
		ev(a("i64", int64(math.MinInt64)), a("i64max", int64(math.MaxInt64))),
		ev(a("u64", uint64(0)), a("u64max", uint64(math.MaxUint64))),
		ev(a("t", true), a("f", false)),
		ev(a("i32", int32(-5)), a("u8", uint8(200)), a("f32", float32(0.1)), a("u", uint(9))),
		ev(a("nil", nil)),
	)

	// Strings: the fast path, everything encoding/json escapes, and what it
	// replaces.
	strs := []string{
		"", "plain", "with space", "tilde~{}[]|^`", "del\x7f",
		`quote"`, `back\slash`, "<script>", "a&b", "x>y",
		"tab\there", "nl\nhere", "cr\r", "nul\x00", "esc\x1b", "bs\b", "ff\f",
		"caf\u00e9", "\u65e5\u672c\u8a9e", "emoji\U0001F600",
		"bad\xffutf8", "\xc3", "trunc\xe2\x82", "\xed\xa0\x80",
		"ls\u2028ps\u2029", "\ufffd", "mixed \" \\ < > & \x01 \u00e9 \xff",
	}
	for _, s := range strs {
		e := ev(a(s, s), a("list", []string{s, "ok", s}), a("named", namedString(s)))
		e.ID, e.Cat, e.Name, e.Track = s, s, s, "workload/"+s
		out = append(out, e)
		d := fullSchedule()
		d.Workload, d.Outcome, d.Candidates[0].Platform, d.Evictions[1] = s, s, s, s
		out = append(out, ev(a("decision", d)),
			ev(a("admit", AdmitDecision{Workload: s, Class: s})),
			ev(a("adjust", AdjustDecision{Workload: s, Actions: []string{s}})))
	}

	// Envelope: phases (including bytes that are not ASCII letters), an
	// id-bearing async pair, empty and nil Args, large seq.
	for _, ph := range []byte{PhaseInstant, PhaseBegin, PhaseEnd, PhaseCounter, '"', '\\', '<', 0, 0x1f, 0x7f, 0x80, 0xe9, 0xff} {
		e := ev()
		e.Phase = ph
		out = append(out, e)
	}
	out = append(out,
		Event{Seq: 1, Phase: PhaseAsyncBegin, ID: "w0@2", Cat: "place", Name: "w0", Track: "server/2",
			Args: []Arg{a("cores", 4), a("quality", 0.75)}},
		Event{Seq: 2, Time: 10, Phase: PhaseAsyncEnd, ID: "w0@2", Cat: "place", Name: "w0", Track: "server/2"},
		Event{Seq: math.MaxUint64, Phase: PhaseInstant, Args: []Arg{}},
		Event{},
	)

	// Slices: nil is null, empty is [].
	out = append(out,
		ev(a("ss", []string(nil)), a("fs", []float64(nil))),
		ev(a("ss", []string{}), a("fs", []float64{})),
	)

	// Decision payloads: every omitempty field off, nil vs empty slices.
	out = append(out,
		ev(a("decision", fullSchedule())),
		ev(a("decision", ScheduleDecision{})),
		ev(a("decision", ScheduleDecision{Workload: "w", NeedPerf: 1, Outcome: OutcomeBadRequest})),
		ev(a("decision", ScheduleDecision{Candidates: []Candidate{}, Picks: []NodePick{}, Evictions: []string{}})),
		ev(a("decision", ScheduleDecision{Candidates: []Candidate{{}}, Picks: []NodePick{{}}, Evictions: []string{""}})),
		ev(a("decision", ScheduleDecision{MaxCost: math.Copysign(0, -1), CostPerHour: math.Copysign(0, -1), CandidatesDropped: -1})),
		ev(a("admit", AdmitDecision{})),
		ev(a("admit", AdmitDecision{Tol: []float64{}, Caused: []float64{}})),
		ev(a("admit", AdmitDecision{Workload: "w", Class: "analytics", RefPerf: 2, Beta: 0.5,
			Tol: []float64{0.25, 0.5}, Caused: []float64{1, 0}, WorkEst: 3600, Deadline: 7200})),
		ev(a("admit", AdmitDecision{WorkEst: math.Copysign(0, -1), Deadline: 1e-9})),
		ev(a("adjust", AdjustDecision{})),
		ev(a("adjust", AdjustDecision{Actions: []string{}})),
		ev(a("adjust", AdjustDecision{Workload: "w", Need: 10, Measured: 7.5, Actions: []string{"resize server 3 -> 8c/16g", "scale-out +2 nodes"}})),
		ev(a("a", fullSchedule()), a("b", AdmitDecision{}), a("c", AdjustDecision{}), a("d", "tail")),
	)

	// Fallback: pointer payloads, unknown structs, maps, raw JSON, and values
	// encoding/json refuses.
	sd, ad, jd := fullSchedule(), AdmitDecision{Workload: "w"}, AdjustDecision{Workload: "w"}
	out = append(out,
		ev(a("p", &sd), a("q", &ad), a("r", &jd)),
		ev(a("unknown", unknownPayload{A: 1, C: map[string]string{"z": "<", "a": "&"}, D: &ptr})),
		ev(a("unknown", unknownPayload{B: "b"})),
		ev(a("map", map[string]any{"b": 1, "a": []int{1, 2}, "<": "\u2028"})),
		ev(a("raw", json.RawMessage(`{ "spaced" : [ 1 , 2 ] , "h" : "<" }`))),
		ev(a("ints", []int{1, 2, 3}), a("bytes", []byte("hi")), a("cands", []Candidate{{Server: 1}})),
		ev(a("before", 1), a("chan", make(chan int))),
		ev(a("fn", func() {})),
		ev(a("bad-raw", json.RawMessage(`{`))),
	)
	return out
}

func TestEventLineMatchesReferenceOnEdgeValues(t *testing.T) {
	events := edgeEvents()
	for i := range events {
		checkLine(t, &events[i])
	}
}

// TestChromeArgsMatchReference: the Chrome exporter renders Args through the
// same appendArgs; its object must be what the reference's argsObject
// marshalled to.
func TestChromeArgsMatchReference(t *testing.T) {
	events := edgeEvents()
	for i := range events {
		want, wantErr := json.Marshal(argsObject(events[i].Args))
		got, gotErr := json.Marshal(chromeArgs(events[i].Args))
		if (wantErr == nil) != (gotErr == nil) || !bytes.Equal(got, want) {
			t.Fatalf("chrome args differ: reference %s (%v), chromeArgs %s (%v)", want, wantErr, got, gotErr)
		}
	}
}

// FuzzEventLineMatchesReference drives both encoders with fuzzed float bits,
// integers, string bytes and candidate counts placed in every position a value
// of that kind can take. The seed corpus under testdata/fuzz (one file per
// format boundary: the 'f'/'e' switches, -0, subnormals, non-finite values,
// escapes, invalid UTF-8, a 184-candidate ranking) replays in normal `go test`
// runs; `go test -fuzz=FuzzEventLineMatchesReference ./internal/obs` explores
// further.
func FuzzEventLineMatchesReference(f *testing.F) {
	f.Add(math.Float64bits(0.75), int64(4), []byte("w0@2"), uint8(2))
	f.Fuzz(func(t *testing.T, bits uint64, n int64, raw []byte, ncand uint8) {
		x, s := math.Float64frombits(bits), string(raw)
		cands := make([]Candidate, ncand)
		for i := range cands {
			cands[i] = Candidate{Server: int(n) + i, Platform: s, Quality: x / float64(i+1), FreeCores: i,
				FreeMemGB: x * float64(i), Evictable: int(n), Compatible: i%2 == 0, Pressure: -x, Picked: i == 1}
		}
		if ncand == 0 && n%2 == 0 {
			cands = nil
		}
		events := []Event{
			{Seq: bits, Time: x, Phase: byte(n), ID: s, Cat: s, Name: s, Track: s, Args: []Arg{
				{Key: s, Val: s}, {Key: "i", Val: int(n)}, {Key: "i64", Val: n}, {Key: "u64", Val: bits},
				{Key: "b", Val: n%2 == 0}, {Key: "ss", Val: []string{s, s}},
			}},
			{Seq: 1, Phase: PhaseCounter, Track: "cluster", Args: []Arg{{Key: "x", Val: x}}},
			{Seq: 2, Phase: PhaseCounter, Track: "cluster", Args: []Arg{{Key: "xs", Val: []float64{1, x}}}},
			{Seq: 3, Phase: PhaseInstant, Track: "manager", Args: []Arg{{Key: "decision", Val: ScheduleDecision{
				Workload: s, NeedPerf: x, Want: x * 1.05, MaxNodes: int(n), AcceptPartial: n%3 == 0, MaxCost: x,
				Candidates: cands, CandidatesDropped: int(n % 5), Picks: []NodePick{{Server: int(n), Cores: 2, MemGB: x, EstPerf: x}}[:ncand%2],
				EstPerf: x, CostPerHour: x, Evictions: []string{s}[:ncand%2], Outcome: s,
			}}}},
			{Seq: 4, Phase: PhaseInstant, Track: "manager", Args: []Arg{{Key: "admit", Val: AdmitDecision{
				Workload: s, Class: s, RefPerf: x, Beta: x, Tol: []float64{x, 1}[:ncand%3], Caused: []float64{x}, WorkEst: x, Deadline: float64(n),
			}}}},
			{Seq: 5, Phase: PhaseInstant, Track: "manager", Args: []Arg{{Key: "adjust", Val: AdjustDecision{
				Workload: s, Need: x, Measured: float64(n), Actions: []string{s, "none"}[:ncand%3],
			}}}},
		}
		for i := range events {
			checkLine(t, &events[i])
		}
	})
}

// goldenEvents is one event per payload type, with values chosen to sit on
// the format's decision points (exponent switch, omitempty, null slices,
// escaping).
func goldenEvents() []Event {
	a := func(k string, v any) Arg { return Arg{Key: k, Val: v} }
	empty := ScheduleDecision{Workload: "single-node-0009", NeedPerf: 1, Want: 1.05, MaxNodes: 1, Outcome: OutcomeNoCapacity}
	return []Event{
		{Seq: 1, Time: 0, Phase: PhaseInstant, Cat: "sched", Name: "admit", Track: "manager", Args: []Arg{a("workload", "w0")}},
		{Seq: 2, Time: 0.001, Phase: PhaseAsyncBegin, ID: "w0@2", Cat: "place", Name: "w0", Track: "server/2",
			Args: []Arg{a("cores", 4), a("quality", 0.75), a("mem_gb", 16.0)}},
		{Seq: 3, Time: 10, Phase: PhaseBegin, Cat: "sched", Name: "decision", Track: "manager"},
		{Seq: 4, Time: 12.5, Phase: PhaseEnd, Cat: "sched", Name: "decision", Track: "manager"},
		{Seq: 5, Time: 12.5, Phase: PhaseAsyncEnd, ID: "w0@2", Cat: "place", Name: "w0", Track: "server/2"},
		{Seq: 6, Time: 1e21, Phase: PhaseCounter, Cat: "util", Name: "cluster", Track: "cluster",
			Args: []Arg{a("busy", 3), a("frac", 1.0/3), a("tiny", 1.5e-9), a("big", 2.5e21), a("neg0", math.Copysign(0, -1))}},
		{Seq: 7, Time: 100, Phase: PhaseInstant, Cat: "qos", Name: "miss", Track: "workload/w0",
			Args: []Arg{a("p99", math.Inf(1)), a("lo", math.Inf(-1)), a("nan", math.NaN()), a("met", false)}},
		{Seq: 8, Time: 100, Phase: PhaseInstant, Cat: "serve", Name: "serve.apply", Track: "serve",
			Args: []Arg{a("seq", 12), a("kind", "submit"), a("req", "r-12"), a("i64", int64(-9)), a("u64", uint64(math.MaxUint64))}},
		{Seq: 9, Time: 100, Phase: PhaseInstant, Cat: "sched", Name: "esc<&>", Track: "manager",
			Args: []Arg{a("s", "q\" b\\ t\t u\u00e9 x\xff l\u2028"), a("ss", []string{"a", "<b>"}), a("nil", []string(nil)), a("fs", []float64{0.5, 1e-7})}},
		{Seq: 10, Time: 200, Phase: PhaseInstant, Cat: "sched", Name: "decision", Track: "manager", Args: []Arg{a("decision", fullSchedule())}},
		{Seq: 11, Time: 200, Phase: PhaseInstant, Cat: "sched", Name: "decision", Track: "manager", Args: []Arg{a("decision", empty)}},
		{Seq: 12, Time: 300, Phase: PhaseInstant, Cat: "classify", Name: "admit", Track: "manager", Args: []Arg{a("admit",
			AdmitDecision{Workload: "hadoop-0007", Class: "analytics", RefPerf: 2.25, Beta: 0.5, Tol: []float64{0.25, 1}, Caused: []float64{0, 0.125}, WorkEst: 3600, Deadline: 7200})}},
		{Seq: 13, Time: 300, Phase: PhaseInstant, Cat: "classify", Name: "admit", Track: "manager", Args: []Arg{a("admit", AdmitDecision{Workload: "w1", Class: "service"})}},
		{Seq: 14, Time: 400, Phase: PhaseInstant, Cat: "runtime", Name: "adjust", Track: "manager", Args: []Arg{a("adjust",
			AdjustDecision{Workload: "w0", Need: 9000, Measured: 7412.5, Actions: []string{"resize server 3 -> 8c/16g", "scale-out +2 nodes"}})}},
		{Seq: 15, Time: 400, Phase: PhaseInstant, Cat: "runtime", Name: "adjust", Track: "manager", Args: []Arg{a("adjust", AdjustDecision{Workload: "w0"})}},
		{Seq: 16, Time: 500, Phase: PhaseInstant, Cat: "misc", Name: "fallback", Track: "manager",
			Args: []Arg{a("unknown", unknownPayload{A: 1, B: "<b>"}), a("f32", float32(0.5)), a("named", namedString("n"))}},
	}
}

// TestEventLineGolden pins the wire bytes themselves, so an encoder edit or a
// Go upgrade that moves one fails here even if it moved the reference too.
func TestEventLineGolden(t *testing.T) {
	var got []byte
	events := goldenEvents()
	for i := range events {
		checkLine(t, &events[i])
		var err error
		if got, err = appendEventLine(got, &events[i]); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join("testdata", "event_lines.golden.jsonl")
	if *updateEventLines {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update-event-lines to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("event lines differ from %s:\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
	if evs, err := ReadJSONL(bytes.NewReader(got)); err != nil || len(evs) != len(events) {
		t.Fatalf("golden lines do not read back: %d events, err %v", len(evs), err)
	}
}

// TestFailedEventLeavesNoPartialLine: an event that cannot encode reaches no
// sink as bytes — not even a prefix — the error surfaces through Tracer.Err,
// the next event encodes whole, and sequence numbers stay contiguous (the
// failed event keeps its seq in the buffer sink; the byte sinks skip it).
func TestFailedEventLeavesNoPartialLine(t *testing.T) {
	bad := fullSchedule()
	bad.Candidates[1].Pressure = math.NaN()
	for name, arg := range map[string]Arg{
		"nested NaN": {Key: "decision", Val: bad},
		"chan":       {Key: "ch", Val: make(chan int)},
	} {
		t.Run(name, func(t *testing.T) {
			var file bytes.Buffer
			stream, tee, buffer := NewStreamSinkWriter(&file), NewTeeSink(), NewBufferSink()
			tr := NewWithSinks(nil, stream, tee, buffer)
			_, header, ch := tee.Subscribe(1)
			if header != nil {
				t.Fatal("tee started before the first event")
			}
			tr.Instant("manager", "sched", "before", Arg{Key: "i", Val: 1})
			tr.Instant("manager", "sched", "broken", Arg{Key: "lead", Val: "in"}, arg)
			if tr.Err() == nil || !strings.Contains(tr.Err().Error(), `obs: arg "`+arg.Key+`"`) {
				t.Fatalf("Tracer.Err = %v, want the arg error", tr.Err())
			}
			tr.Instant("manager", "sched", "after", Arg{Key: "i", Val: 2})
			if err := tr.Close(); err == nil {
				t.Fatal("Close dropped the recorded error")
			}

			good := New(nil)
			good.Instant("manager", "sched", "before", Arg{Key: "i", Val: 1})
			good.Instant("manager", "sched", "after", Arg{Key: "i", Val: 2})
			var want bytes.Buffer
			if err := WriteEventsJSONL(&want, nil, good.Events()); err != nil {
				t.Fatal(err)
			}
			// The byte sinks carry seq 1 and 3: patch the expectation rather
			// than the output.
			wantLines := strings.Replace(want.String(), `{"seq":2,`, `{"seq":3,`, 1)

			lines := strings.SplitAfter(file.String(), "\n")
			if got := strings.Join(lines[1:3], ""); got != wantLines {
				t.Fatalf("stream sink event lines:\n%s\nwant:\n%s", got, wantLines)
			}
			if strings.Contains(file.String(), "broken") || strings.Contains(file.String(), "lead") {
				t.Fatalf("stream sink holds part of the failed event:\n%s", file.String())
			}
			batch := <-ch
			if !strings.HasPrefix(string(batch.Data), wantLines) || strings.Contains(string(batch.Data), "broken") {
				t.Fatalf("tee batch:\n%s\nwant prefix:\n%s", batch.Data, wantLines)
			}
			evs := buffer.Events()
			if len(evs) != 3 || evs[0].Seq != 1 || evs[1].Seq != 2 || evs[2].Seq != 3 {
				t.Fatalf("buffer sink seqs not contiguous: %+v", evs)
			}
			if err := WriteJSONL(io.Discard, tr); err == nil {
				t.Fatal("WriteJSONL encoded the broken event")
			}
		})
	}
}

// TestStreamSinkEmitDecisionZeroAlloc: a full-cluster ranking (184 candidates,
// the serve_replay journal's mean) encodes into the sink's reused line buffer
// without allocating once that buffer has grown.
func TestStreamSinkEmitDecisionZeroAlloc(t *testing.T) {
	d := fullSchedule()
	d.Candidates = make([]Candidate, 184)
	for i := range d.Candidates {
		d.Candidates[i] = Candidate{Server: i, Platform: "xeon-e5", Quality: 1 / float64(i+1), FreeCores: i % 24,
			FreeMemGB: float64(i) * 0.5, Evictable: i % 3, Compatible: i%7 != 0, Pressure: float64(i) / 184, Picked: i < 2}
	}
	ev := Event{Seq: 1, Time: 1234.5, Phase: PhaseInstant, Cat: "sched", Name: "decision", Track: "manager",
		Args: []Arg{{Key: "decision", Val: d}}}
	sink := NewStreamSinkWriter(io.Discard)
	if err := sink.Emit(&ev, 0); err != nil { // warm-up: grows the line buffer
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(50, func() { _ = sink.Emit(&ev, 0) }); allocs != 0 { //lint:allow(floatcmp) an exact count
		t.Fatalf("StreamSink.Emit of a 184-candidate decision allocates %v times per event, want 0", allocs)
	}
}
