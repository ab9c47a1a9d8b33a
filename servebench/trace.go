package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed call: name, start, end and the span that caused it
// (-1 for a root). Attr tells apart calls of one name, such as a
// Jaccard and an SDice store.search.
type span struct {
	Name   string `json:"name"`
	Attr   string `json:"attr,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
}

// tracer keeps a run's spans in memory. The traced run is one
// goroutine, so the open spans form a stack and a new span's parent is
// the innermost open one.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int
	mark  int64 // spans starting before mark are warm-up
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) parent() int {
	if len(t.open) == 0 {
		return -1
	}
	return t.open[len(t.open)-1]
}

// begin opens a span and returns its id for end.
func (t *tracer) begin(name, attr string) int {
	t.spans = append(t.spans, span{Name: name, Attr: attr, Start: t.now(), Parent: t.parent()})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

func (t *tracer) end(id int) {
	t.spans[id].End = t.now()
	t.open = t.open[:len(t.open)-1]
}

// do runs fn under a span.
func (t *tracer) do(name, attr string, fn func()) {
	id := t.begin(name, attr)
	fn()
	t.end(id)
}

// add records a finished child of the innermost open span, for a call
// that is known to deserve a span only once it has returned.
func (t *tracer) add(name string, start, end int64) {
	t.spans = append(t.spans, span{Name: name, Start: start, End: end, Parent: t.parent()})
}

// startTimed marks the end of warm-up: metrics read only later spans.
func (t *tracer) startTimed() { t.mark = t.now() }

// durations lists, in ms, the timed spans of name (and attr, if set).
func (t *tracer) durations(name, attr string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && (attr == "" || s.Attr == attr) && s.Start >= t.mark {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// selfTimes sums each layer's self time over the timed spans: a span's
// duration minus the part its children cover.
func (t *tracer) selfTimes() map[string]float64 {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]float64{}
	for i, s := range t.spans {
		if s.Start >= t.mark {
			out[layerOf[s.Name]] += float64(s.End-s.Start-child[i]) / 1e6
		}
	}
	return out
}

// layerOf maps span names to the module that does the work.
var layerOf = map[string]string{
	"ingest":              "server",
	"search":              "server",
	"window.commit":       "server",
	"checkpoint":          "server",
	"stream.ingest":       "stream",
	"stream.close":        "stream",
	"wal.append":          "wal",
	"wal.reset":           "wal",
	"wal.origin":          "wal",
	"wal.replay":          "wal",
	"store.add":           "store",
	"store.save":          "store",
	"store.load":          "store",
	"store.search":        "store",
	"store.batch":         "store",
	"store.history":       "store",
	"distmat.setview":     "distmat",
	"distmat.neighbors":   "distmat",
	"segment.write":       "segment",
	"segment.open":        "segment",
	"segment.read_window": "segment",
}

// write saves the spans as JSON.
func (t *tracer) write(path string) error {
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// spanCost measures, in ns, what recording one span and reading the
// tracer's clock once cost, to state the tracing overhead of a run.
func spanCost() (span, clock float64) {
	const n = 20000
	t := newTracer()
	begin := time.Now()
	for i := 0; i < n; i++ {
		t.end(t.begin("x", ""))
	}
	span = float64(time.Since(begin)) / n
	begin = time.Now()
	var sink int64
	for i := 0; i < n; i++ {
		sink += t.now()
	}
	clock = float64(time.Since(begin)) / n
	if sink < 0 {
		clock = 0
	}
	return span, clock
}
