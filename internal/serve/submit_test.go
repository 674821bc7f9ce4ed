package serve

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzSubmitBody feeds arbitrary bytes to the decode-and-validate half of
// POST /v1/submit. Every body must be accepted or rejected, never panic. An
// accepted request is what the journal records and a replay applies, so it
// must survive the journal's own round trip — Journal's encoder, then
// JournalReader — as an equal value that still validates.
func FuzzSubmitBody(f *testing.F) {
	for _, body := range []string{
		`{"type":"single-node","best_effort":true}`,
		"{\"type\":\"single-node\",\"best_effort\":true} \r\n",
		`{"type":"mapreduce"}`,
		`{"type":"webserver","qqps":100}`,
		`{"type":"webserver","qps":-5}`,
		`{"type":`,
		`{"type":"hadoop","family":99}`,
		`{"type":"single-node","best_effort":true}{"type":"hadoop"}`,
		`{"type":"single-node","family":-1,"target_slack":2,"dataset":{"Name":"serve","SizeGB":5,"WorkMult":0.05,"MemMult":0.8}}`,
		`{"type":"memcached","qps":-0,"latency_us":1e-7,"load":{"kind":"diurnal","min":100,"max":900,"peak_hour":14}}`,
		`{"type":"storm","load":{"kind":"spike","base":1,"peak":2,"start":0,"duration":0}}`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := decodeSubmit(bytes.NewReader(body))
		if err != nil {
			return
		}
		lines := writtenLines(t, Entry{Kind: KindSubmit, Submit: req})
		r := rawJournal(t, string(lines[0]))
		e, ok, err := r.Next()
		if err != nil || !ok {
			t.Fatalf("body %q: journal line %s did not read back: ok %v, %v", body, lines[0], ok, err)
		}
		if !reflect.DeepEqual(e.Submit, req) {
			t.Fatalf("body %q: accepted %+v, journal round trip %+v", body, req, e.Submit)
		}
		if err := e.Submit.validate(); err != nil {
			t.Fatalf("body %q: accepted, but its journal round trip fails validation: %v", body, err)
		}
	})
}
