package main

import (
	"encoding/json"
	"net/http"
	"os"
	"strconv"
	"sync"
	"time"
)

// Trace headers carry a request's identity from the benchmark's client to
// the benchmark's middleware, so the handler span nests under the right
// client span. Nothing inside the program reads them.
const (
	headerTraceID     = "X-Bench-Trace-Id"
	headerTraceParent = "X-Bench-Trace-Parent"
)

// span is one timed call into a layer. Spans of one query share Req (the
// query's index); Parent is the index of the span one depth up, -1 at the
// top. Times are nanoseconds since the trace began.
type span struct {
	Name   string `json:"name"`
	Req    int    `json:"req"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. The program itself is
// not instrumented: every span is recorded from the benchmark's own files,
// around a call into one layer's public API — loopback HTTP, the handler
// (through a middleware in the served chain), onex.DB, core.Engine — and
// the dist layer enters as its unit cost times the query's DTW count.
// Only the handler span truly nests inside its parent in time; the deeper
// layers are separate calls with the same query, so a layer's self time is
// its span's duration minus its child's duration.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span and returns its index.
func (t *tracer) begin(name string, req, parent int) int {
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Req: req, Parent: parent, Start: start})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	end := t.now()
	t.mu.Lock()
	t.spans[id].End = end
	t.mu.Unlock()
}

// synthetic records a span of a computed duration starting with its parent.
func (t *tracer) synthetic(name string, req, parent int, dur time.Duration) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	start := t.spans[parent].Start
	t.spans = append(t.spans, span{Name: name, Req: req, Parent: parent, Start: start, End: start + int64(dur)})
	return len(t.spans) - 1
}

// middleware records a "handler" span around next for tagged requests.
func (t *tracer) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, err1 := strconv.Atoi(r.Header.Get(headerTraceID))
		parent, err2 := strconv.Atoi(r.Header.Get(headerTraceParent))
		if err1 != nil || err2 != nil {
			next.ServeHTTP(w, r)
			return
		}
		id := t.begin("handler", req, parent)
		next.ServeHTTP(w, r)
		t.end(id)
	})
}

// selfTimes returns, per layer, every span's duration minus its children's
// durations, in microseconds.
func (t *tracer) selfTimes() map[string][]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string][]float64{}
	for i, s := range t.spans {
		out[s.Name] = append(out[s.Name], float64(s.End-s.Start-child[i])/1e3)
	}
	return out
}

// write dumps the spans as JSON.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	data, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
