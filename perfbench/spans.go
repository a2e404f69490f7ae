package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed interval around a call the benchmark makes into a
// layer.  Times are microseconds since the tracer started.
type span struct {
	Name   string  `json:"name"`
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
	Parent int     `json:"parent"` // index of the enclosing span, -1 for a root
	Req    int     `json:"req"`    // request the span belongs to
}

// tracer keeps spans in memory for the traced run and writes them out
// when the run ends.  A nil *tracer records nothing, so untraced runs
// pay only a nil check per call.
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span //mtlint:guardedby mu
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) since(at time.Time) float64 { return float64(at.Sub(t.t0).Nanoseconds()) / 1e3 }

// record adds a finished span and returns its index (-1 when t is nil).
func (t *tracer) record(name string, parent, req int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: t.since(start), End: t.since(end), Parent: parent, Req: req})
	return len(t.spans) - 1
}

// begin opens a span that end closes; parents must be opened before
// their children so indexes stay valid.
func (t *tracer) begin(name string, parent, req int) int {
	if t == nil {
		return -1
	}
	now := time.Now()
	return t.record(name, parent, req, now, now)
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := t.since(time.Now())
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
}

// selfTimes returns each span name's total self time in milliseconds:
// its spans' durations minus the parts their children cover.
func (t *tracer) selfTimes() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]float64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string]float64)
	for i, s := range t.spans {
		out[s.Name] += (s.End - s.Start - child[i]) / 1e3
	}
	return out
}

// count is the number of spans recorded.
func (t *tracer) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// write stores the spans as JSON at path.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	data, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
