package obs

// headerMagic identifies a Quasar trace header line.
const headerMagic = "quasar-obs"

// Header is the first line of a JSONL trace: the format version and the
// top-K cap the run's schedule decisions were recorded under, so a reader
// knows a candidate ranking may be partial. It carries no "seq" field,
// which is how pre-header readers (and the metric line skip in ReadJSONL)
// pass over it.
type Header struct {
	Trace   string `json:"trace"`
	Version int    `json:"version"`
	TopK    int    `json:"top_k,omitempty"`
}

// header renders the header of a trace recorded under a top-K cap (0 for
// full rankings, the header a standalone sink writes when it finalizes
// without ever having seen a tracer's Start).
func header(topK int) *Header {
	return &Header{Trace: headerMagic, Version: 2, TopK: topK}
}
