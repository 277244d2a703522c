package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed interval at a layer boundary. Start and End are
// nanoseconds since the tracer was created; Parent is the span that
// caused it (0 = none) and Trace groups the spans of one operation.
type Span struct {
	ID     int                `json:"id"`
	Parent int                `json:"parent,omitempty"`
	Trace  int                `json:"trace"`
	Name   string             `json:"name"`
	Start  int64              `json:"start_ns"`
	End    int64              `json:"end_ns"`
	Counts map[string]float64 `json:"counts,omitempty"`
}

// Dur is the span's duration in nanoseconds.
func (s Span) Dur() int64 { return s.End - s.Start }

// Tracer keeps spans in memory until the benchmark ends. A nil *Tracer
// is tracing switched off: every method is a no-op, so the timed pass
// and the traced pass run the same code.
type Tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []Span
	trace int
}

func newTracer() *Tracer { return &Tracer{t0: time.Now()} }

// NewTrace returns a fresh identifier for the spans of one operation.
func (t *Tracer) NewTrace() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.trace++
	return t.trace
}

// Begin opens a span and returns its id (0 when tracing is off).
func (t *Tracer) Begin(trace, parent int, name string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{ID: len(t.spans) + 1, Parent: parent, Trace: trace, Name: name, Start: now, End: now})
	return len(t.spans)
}

// End closes a span, attaching counts measured at the same boundary.
func (t *Tracer) End(id int, counts map[string]float64) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
	t.spans[id-1].Counts = counts
}

// Record adds a span whose interval was measured by the caller.
func (t *Tracer) Record(trace, parent int, name string, start, end time.Time, counts map[string]float64) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{ID: len(t.spans) + 1, Parent: parent, Trace: trace, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(), Counts: counts})
	return len(t.spans)
}

// Spans returns a copy of the recorded spans.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// selfTimes maps each span id to its self time: its duration minus the
// part of its interval that its child spans cover. Children may overlap
// each other (parallel components) and may stick out of the parent
// (clock skew between goroutines); coverage is the union of the child
// intervals clipped to the parent.
func selfTimes(spans []Span) map[int]int64 {
	children := map[int][]Span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[s.ID] = s.Dur() - covered
	}
	return out
}

// traceFile is the on-disk form of one traced pass.
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Env      map[string]any     `json:"env"`
	Note     string             `json:"note"`
	Spans    []Span             `json:"spans"`
	SelfNS   map[string]float64 `json:"self_ns_by_name"`
}

// maxSpansWritten bounds the trace file: aggregates use every span, the
// file keeps the first ones (whole operations from the start of the
// pass) so that it stays loadable.
const maxSpansWritten = 20000

func writeTrace(path string, tf traceFile, spans []Span) error {
	self := selfTimes(spans)
	tf.SelfNS = map[string]float64{}
	for _, s := range spans {
		tf.SelfNS[s.Name] += float64(self[s.ID])
	}
	if len(spans) > maxSpansWritten {
		spans = spans[:maxSpansWritten]
	}
	tf.Spans = spans
	data, err := json.MarshalIndent(tf, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
