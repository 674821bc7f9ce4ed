package serve

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"quasar/internal/loadgen"
	"quasar/internal/workload"
)

// fullSubmit sets every SubmitRequest field, every Dataset field and every
// PatternSpec field, with numbers on the encoder's format decision points
// (exponent forms, negative, integral floats).
func fullSubmit() *SubmitRequest {
	return &SubmitRequest{
		Type: "memcached", Family: 3, BestEffort: true, TargetSlack: 1.25, QPS: 1e21, LatencyUS: 1e-7,
		MaxNodes: 12, MaxCostPerHour: 0.125,
		Dataset: &workload.Dataset{Name: "2KB-reads", SizeGB: 256, WorkMult: 1.3, MemMult: -0.5},
		Load: &loadgen.PatternSpec{Kind: "spike", QPS: 5, Min: 0.4, Max: 0.9, Period: 600, Phase: -1.5,
			Base: 100, Peak: 9e22, Start: 30, Duration: 12.5, RampSecs: 2e-9, PeakHour: 14},
	}
}

// fullTarget sets every TargetUpdate field.
func fullTarget() *TargetUpdate {
	return &TargetUpdate{CompletionSecs: 3600, QPS: 11000.5, LatencyUS: 1e-3, IPS: 2.5e9}
}

// writtenLines journals entries with the Journal's own encoder, then the end
// marker, and returns every line after the header.
func writtenLines(t testing.TB, entries ...Entry) [][]byte {
	t.Helper()
	var buf bytes.Buffer
	j := NewJournalWriter(&buf, Config{Servers: 8, Seed: 1}, 8)
	for _, e := range entries {
		if _, err := j.Admit(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.end(9); err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSuffix(buf.Bytes(), []byte("\n")), []byte("\n"))
	return lines[1:]
}

// rawJournal writes a journal file of a header and the given lines and
// opens it.
func rawJournal(t testing.TB, lines ...string) *JournalReader {
	t.Helper()
	var buf bytes.Buffer
	NewJournalWriter(&buf, Config{Servers: 8, Seed: 1}, 8)
	for _, l := range lines {
		buf.WriteString(l + "\n")
	}
	path := filepath.Join(t.TempDir(), "run.journal")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = r.Close() })
	return r
}

// requireAllSet fails for every field of the struct v points to that is
// zero, descending into pointers to structs.
func requireAllSet(t *testing.T, v reflect.Value, path string) {
	t.Helper()
	v = v.Elem()
	for i := 0; i < v.NumField(); i++ {
		f, name := v.Field(i), path+"."+v.Type().Field(i).Name
		if f.IsZero() {
			t.Errorf("fixture leaves %s zero: set it, so the canonical reader must read it", name)
			continue
		}
		if f.Kind() == reflect.Pointer && f.Elem().Kind() == reflect.Struct {
			requireAllSet(t, f, name)
		}
	}
}

// TestCanonicalReaderAcceptsWhatJournalWrites is the guard against a silent
// fallback: every field the writer can emit is set, and the canonical reader
// must accept every line the writer produces and decode it exactly as
// encoding/json does. A field added to Entry, SubmitRequest, Dataset,
// PatternSpec or TargetUpdate fails here until the fixture sets it and the
// reader reads it.
func TestCanonicalReaderAcceptsWhatJournalWrites(t *testing.T) {
	requireAllSet(t, reflect.ValueOf(fullSubmit()), "SubmitRequest")
	requireAllSet(t, reflect.ValueOf(fullTarget()), "TargetUpdate")
	entries := []Entry{
		{Kind: KindSubmit, Submit: fullSubmit()},
		{Kind: KindSubmit, Submit: &SubmitRequest{Type: "single-node", Family: -1}},
		{Kind: KindTarget, Workload: "memcached-0008", Target: fullTarget()},
		{Kind: KindTarget, Workload: "memcached-0008", Target: &TargetUpdate{}},
		{Kind: KindEvict, Workload: "single-node-0009"},
	}
	lines := writtenLines(t, entries...)
	if len(lines) != len(entries)+1 {
		t.Fatalf("journal has %d entry lines, want %d", len(lines), len(entries)+1)
	}
	var decoded []*Entry
	for _, line := range lines {
		got, ok := decodeEntry(line)
		if !ok {
			t.Errorf("canonical reader declined a line the journal wrote: %s", line)
			continue
		}
		var want Entry
		if err := json.Unmarshal(line, &want); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, &want) {
			t.Errorf("canonical reader decoded %s\n as %+v\nencoding/json: %+v", line, got, &want)
		}
		decoded = append(decoded, got)
	}
	// Every Entry field is carried by at least one line.
	ev := reflect.TypeOf(Entry{})
	for i := 0; i < ev.NumField(); i++ {
		set := false
		for _, e := range decoded {
			set = set || !reflect.ValueOf(e).Elem().Field(i).IsZero()
		}
		if !set {
			t.Errorf("no journaled entry sets Entry.%s", ev.Field(i).Name)
		}
	}
}

// TestNonCanonicalLinesDecodeAsJSON: valid lines in a form the writer never
// produces are declined by the canonical reader and decoded by encoding/json,
// so Next reads them exactly as it always has.
func TestNonCanonicalLinesDecodeAsJSON(t *testing.T) {
	lines := map[string]string{
		"spaces":        `{"seq": 1, "at": 1, "kind": "evict", "workload": "single-node-0008"}`,
		"reordered":     `{"at":1,"seq":1,"kind":"evict","workload":"single-node-0008"}`,
		"duplicate key": `{"seq":1,"at":1,"kind":"evict","workload":"a","workload":"single-node-0008"}`,
		"name vs Name":  `{"seq":1,"at":1,"kind":"submit","submit":{"type":"hadoop","family":-1,"dataset":{"name":"x","SizeGB":1,"WorkMult":1,"MemMult":1}}}`,
		"HTML-escaped":  `{"seq":1,"at":1,"kind":"submit","submit":{"type":"hadoop","family":-1,"dataset":{"Name":"\u003cb\u003e\u0026","SizeGB":1,"WorkMult":1,"MemMult":1}}}`,
		"escaped quote": `{"seq":1,"at":1,"kind":"evict","workload":"say \"hi\""}`,
		"non-ASCII":     `{"seq":1,"at":1,"kind":"submit","submit":{"type":"hadoop","family":-1,"dataset":{"Name":"café","SizeGB":1,"WorkMult":1,"MemMult":1}}}`,
		"unknown field": `{"seq":1,"at":1,"kind":"evict","workload":"single-node-0008","note":"x"}`,
		"submit null":   `{"seq":1,"at":1,"kind":"submit","submit":null}`,
		"no family":     `{"seq":1,"at":1,"kind":"submit","submit":{"type":"hadoop"}}`,
		"key case":      `{"Seq":1,"at":1,"kind":"evict"}`,
		"CRLF":          "{\"seq\":1,\"at\":1,\"kind\":\"evict\"}\r",
	}
	for name, line := range lines {
		if _, ok := decodeEntry([]byte(line)); ok {
			t.Errorf("%s: canonical reader accepted %s", name, line)
		}
		var want Entry
		if err := json.Unmarshal([]byte(line), &want); err != nil {
			t.Fatalf("%s: fixture is not valid: %v", name, err)
		}
		got, ok, err := rawJournal(t, line).Next()
		if err != nil || !ok {
			t.Fatalf("%s: Next = %v, %v", name, ok, err)
		}
		if !reflect.DeepEqual(got, &want) {
			t.Errorf("%s: Next read %+v, encoding/json %+v", name, got, &want)
		}
	}
}

// TestCorruptJournalLinesKeepTheirErrors pins Next's error text for corrupt
// lines to what it was before the canonical reader existed: every one of
// them is declined and reported by encoding/json.
func TestCorruptJournalLinesKeepTheirErrors(t *testing.T) {
	cases := []struct{ line, want string }{
		{`{"seq":1,"at":1,"kind":"submit","submit":{"type":"hadoop","family":-1,"bogus":1}}`,
			`serve: corrupt journal entry: json: unknown field "bogus"`},
		{`{"seq":1,"at":1,"kind":"submit","submit":{"type":"hadoop","family":-1,"dataset":{"Name":"x","Size":1}}}`,
			`serve: corrupt journal entry: json: unknown field "Size"`},
		{`{"seq":"1","at":1,"kind":"evict"}`,
			`serve: corrupt journal entry: json: cannot unmarshal string into Go struct field Entry.seq of type int`},
		{`{"seq":2.0,"at":1,"kind":"evict"}`,
			`serve: corrupt journal entry: json: cannot unmarshal number 2.0 into Go struct field Entry.seq of type int`},
		{`{"seq":1e3,"at":1,"kind":"evict"}`,
			`serve: corrupt journal entry: json: cannot unmarshal number 1e3 into Go struct field Entry.seq of type int`},
		{`{"seq":99999999999999999999,"at":1,"kind":"evict"}`,
			`serve: corrupt journal entry: json: cannot unmarshal number 99999999999999999999 into Go struct field Entry.seq of type int`},
		{`{"seq":1,"at":1e999,"kind":"evict"}`,
			`serve: corrupt journal entry: json: cannot unmarshal number 1e999 into Go struct field Entry.at of type float64`},
		{`{"seq":1,"at":+1,"kind":"evict"}`,
			`serve: corrupt journal entry: invalid character '+' looking for beginning of value`},
		{`{"seq":1,"at":Inf,"kind":"evict"}`,
			`serve: corrupt journal entry: invalid character 'I' looking for beginning of value`},
		{`{"seq":1,"at":0x10,"kind":"evict"}`,
			`serve: corrupt journal entry: invalid character 'x' after object key:value pair`},
		{`{"seq":01,"at":1,"kind":"evict"}`,
			`serve: corrupt journal entry: invalid character '1' after object key:value pair`},
		{`{"seq":1,"at":1.,"kind":"evict"}`,
			`serve: corrupt journal entry: invalid character ',' after decimal point in numeric literal`},
		{`{"seq":1,"at":1,"kind":"evict"}x`,
			`serve: corrupt journal entry: invalid character 'x' after top-level value`},
		{`{"seq":1,"at":1,"kind":"evict"`,
			`serve: corrupt journal entry: unexpected end of JSON input`},
		{`{"seq":1,"at":1,"kind":"ev` + "\x01" + `ict"}`,
			`serve: corrupt journal entry: invalid character '\x01' in string literal`},
		{`{"seq":1,"at":1,"kind":"evict",}`,
			`serve: corrupt journal entry: invalid character '}' looking for beginning of object key string`},
	}
	for _, tc := range cases {
		_, ok, err := rawJournal(t, tc.line).Next()
		if err == nil || ok {
			t.Errorf("Next accepted corrupt line %s", tc.line)
			continue
		}
		if err.Error() != tc.want {
			t.Errorf("Next(%s) error\n got %s\nwant %s", tc.line, err, tc.want)
		}
	}
}

// TestJournalReaderRefills reads a journal much larger than the reader's
// buffer, with lines straddling refills and one line longer than the buffer,
// then a torn tail completed by a later write: the reader must return every
// entry in order and wait at the tear.
func TestJournalReaderRefills(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.journal")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = f.Close() }()
	j := NewJournalWriter(f, Config{Servers: 8, Seed: 1}, 8)
	var want []Entry
	for i := 0; i < 3000; i++ {
		req := &SubmitRequest{Type: "single-node", Family: -1, BestEffort: true,
			Dataset: &workload.Dataset{Name: strings.Repeat("d", i%97), SizeGB: float64(i)}}
		if i == 1500 {
			req.Dataset.Name = strings.Repeat("long", 50<<10)
		}
		e, err := j.Admit(Entry{Kind: KindSubmit, Submit: req})
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, e)
	}
	if _, _, err := j.seal(2); err != nil {
		t.Fatal(err)
	}
	r, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = r.Close() }()
	for i := range want {
		got, ok, err := r.Next()
		if err != nil || !ok {
			t.Fatalf("entry %d: Next = %v, %v", i, ok, err)
		}
		if !reflect.DeepEqual(got, &want[i]) {
			t.Fatalf("entry %d read back as %+v, want %+v", i, got, &want[i])
		}
	}
	tail := `{"seq":3001,"at":2,"kind":"evict","workload":"single-node-0008"}` + "\n"
	for _, part := range []string{tail[:20], tail[20:]} {
		if _, ok, err := r.Next(); ok || err != nil {
			t.Fatalf("Next at a torn tail = %v, %v; want a clean wait", ok, err)
		}
		if _, err := f.WriteString(part); err != nil {
			t.Fatal(err)
		}
	}
	got, ok, err := r.Next()
	if err != nil || !ok || got.Seq != 3001 || got.Workload != "single-node-0008" {
		t.Fatalf("completed tail read as %+v, %v, %v", got, ok, err)
	}
}

// FuzzJournalEntryMatchesJSON holds the canonical reader to encoding/json:
// whatever line it accepts, encoding/json must accept too and decode to the
// same Entry. The committed corpus is one journal line per kind, a submit
// with a load spec, a target, and lines with HTML-escaped and non-ASCII
// strings (which the reader declines and the fuzzer mutates from).
func FuzzJournalEntryMatchesJSON(f *testing.F) {
	for _, line := range writtenLines(f, Entry{Kind: KindSubmit, Submit: fullSubmit()},
		Entry{Kind: KindTarget, Workload: "x-0001", Target: fullTarget()}) {
		f.Add(line)
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		got, ok := decodeEntry(line)
		if !ok {
			return
		}
		var want Entry
		if err := json.Unmarshal(line, &want); err != nil {
			t.Fatalf("canonical reader accepted %q, encoding/json rejects it: %v", line, err)
		}
		if !reflect.DeepEqual(got, &want) {
			t.Fatalf("line %q: canonical reader %+v, encoding/json %+v", line, got, &want)
		}
	})
}

// replayMixJournal writes a journal of the serve_replay ledger workload's
// mix: one entry per epoch, three best-effort submits, one targeted submit
// and one eviction of an earlier best-effort submit in every five.
func replayMixJournal(b *testing.B, n int) string {
	ds := &workload.Dataset{Name: "serve", SizeGB: 5, WorkMult: 0.05, MemMult: 0.8}
	var script []ScriptEntry
	var evictable []string
	ordinal := 8
	for i := 0; i < n; i++ {
		se := ScriptEntry{At: float64(i + 1)}
		switch i % 5 {
		case 3:
			se.Submit = &SubmitRequest{Type: "single-node", Family: -1, TargetSlack: 2, Dataset: ds}
		case 4:
			se.Evict, evictable = evictable[0], evictable[1:]
		default:
			se.Submit = &SubmitRequest{Type: "single-node", Family: -1, BestEffort: true, Dataset: ds}
			evictable = append(evictable, predictID(workload.SingleNode, ordinal))
		}
		if se.Submit != nil {
			ordinal++
		}
		script = append(script, se)
	}
	path := filepath.Join(b.TempDir(), "run.journal")
	if _, err := BuildJournal(path, Config{Servers: 200, Seed: 1}, float64(n+30), script); err != nil {
		b.Fatal(err)
	}
	return path
}

// BenchmarkJournalNext times reading one entry of a serve_replay-shaped
// journal: canonical is JournalReader.Next (file read, line split, canonical
// reader), encoding_json is the json.Unmarshal the reader falls back to, on
// the same lines.
func BenchmarkJournalNext(b *testing.B) {
	path := replayMixJournal(b, 5000)
	b.Run("canonical", func(b *testing.B) {
		var r *JournalReader
		defer func() { _ = r.Close() }()
		reopen := func() {
			if r != nil {
				_ = r.Close()
			}
			var err error
			if r, err = OpenJournal(path); err != nil {
				b.Fatal(err)
			}
		}
		reopen()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_, ok, err := r.Next()
			if err != nil {
				b.Fatal(err)
			}
			if !ok {
				b.StopTimer()
				reopen()
				b.StartTimer()
			}
		}
	})
	b.Run("encoding_json", func(b *testing.B) {
		data, err := os.ReadFile(path)
		if err != nil {
			b.Fatal(err)
		}
		lines := bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n"))[1:]
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var e Entry
			if err := json.Unmarshal(lines[i%len(lines)], &e); err != nil {
				b.Fatal(err)
			}
		}
	})
}
