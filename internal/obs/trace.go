// Distributed-tracing primitives: W3C trace-context identifiers, an
// in-process span builder, a fixed-size flight recorder of recent
// traces, and a Chrome trace-event exporter so recorded traces open
// directly in about:tracing / Perfetto.
//
// The model is deliberately smaller than OpenTelemetry: a Trace is a
// single-process builder that collects spans (name, parent, wall-clock
// window, typed attributes) for one request, and Finish freezes it into
// an immutable TraceRecord. Identifiers and the traceparent header
// follow the W3C Trace Context format, so traces started by an upstream
// proxy keep their IDs through the serve tier.
package obs

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"io"
	"sync"
	"time"
)

// TraceID is the 16-byte W3C trace identifier.
type TraceID [16]byte

// SpanID is the 8-byte W3C span identifier.
type SpanID [8]byte

// String renders the ID as 32 lowercase hex characters.
func (t TraceID) String() string { return hex.EncodeToString(t[:]) }

// IsZero reports whether the ID is the invalid all-zero value.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// String renders the ID as 16 lowercase hex characters.
func (s SpanID) String() string { return hex.EncodeToString(s[:]) }

// IsZero reports whether the ID is the invalid all-zero value.
func (s SpanID) IsZero() bool { return s == SpanID{} }

// NewTraceID returns a random non-zero trace identifier.
func NewTraceID() TraceID {
	var t TraceID
	for t.IsZero() {
		_, _ = rand.Read(t[:])
	}
	return t
}

// NewSpanID returns a random non-zero span identifier.
func NewSpanID() SpanID {
	var s SpanID
	for s.IsZero() {
		_, _ = rand.Read(s[:])
	}
	return s
}

// ParseTraceparent parses a W3C traceparent header value
// ("00-<32 hex trace id>-<16 hex span id>-<2 hex flags>"). It accepts
// any version except the reserved ff and ignores the flags. ok is false
// for malformed headers and for the invalid all-zero identifiers —
// callers fall back to generating fresh IDs.
func ParseTraceparent(h string) (tid TraceID, parent SpanID, ok bool) {
	if len(h) < 55 || h[2] != '-' || h[35] != '-' || h[52] != '-' {
		return TraceID{}, SpanID{}, false
	}
	if len(h) > 55 {
		// Version 00 is exactly 55 bytes; later versions may append
		// "-suffix" fields but never extend the fixed prefix.
		if (h[0] == '0' && h[1] == '0') || h[55] != '-' {
			return TraceID{}, SpanID{}, false
		}
	}
	var ver [1]byte
	if _, err := hex.Decode(ver[:], []byte(h[0:2])); err != nil || ver[0] == 0xff {
		return TraceID{}, SpanID{}, false
	}
	if _, err := hex.Decode(tid[:], []byte(h[3:35])); err != nil {
		return TraceID{}, SpanID{}, false
	}
	if _, err := hex.Decode(parent[:], []byte(h[36:52])); err != nil {
		return TraceID{}, SpanID{}, false
	}
	var flags [1]byte
	if _, err := hex.Decode(flags[:], []byte(h[53:55])); err != nil {
		return TraceID{}, SpanID{}, false
	}
	if tid.IsZero() || parent.IsZero() {
		return TraceID{}, SpanID{}, false
	}
	return tid, parent, true
}

// Traceparent renders the W3C traceparent header value for an ID pair,
// always version 00 with the sampled flag set.
func Traceparent(t TraceID, s SpanID) string {
	return "00-" + t.String() + "-" + s.String() + "-01"
}

// Attr is one typed span attribute. Value is a string or an int64.
type Attr struct {
	Key   string
	Value any
}

// StringAttr builds a string attribute.
func StringAttr(k, v string) Attr { return Attr{Key: k, Value: v} }

// IntAttr builds an integer attribute.
func IntAttr(k string, v int64) Attr { return Attr{Key: k, Value: v} }

// Span is one named, timed operation within a trace.
type Span struct {
	ID     SpanID
	Parent SpanID // zero for the root span
	Name   string
	Start  time.Time
	End    time.Time
	Attrs  []Attr
}

// TraceRecord is one finished trace: the immutable output of
// Trace.Finish, safe to share between the flight recorder and readers.
type TraceRecord struct {
	TraceID TraceID
	// Remote is the inbound parent span from the traceparent header the
	// trace was continued from; zero when the trace originated here.
	Remote SpanID
	// Spans holds every recorded span in completion order; Spans[0] is
	// the root.
	Spans []Span
}

// Root returns the record's root span.
func (r TraceRecord) Root() Span { return r.Spans[0] }

// FindSpans returns every span with the given name.
func (r TraceRecord) FindSpans(name string) []Span {
	var out []Span
	for _, sp := range r.Spans {
		if sp.Name == name {
			out = append(out, sp)
		}
	}
	return out
}

// Trace builds one trace from finished spans: the root is open until
// Finish, every other span is recorded complete with RecordSpan. All
// methods are safe for concurrent use; the zero value is not usable —
// construct with NewTrace or ContinueTrace.
type Trace struct {
	mu     sync.Mutex
	id     TraceID
	remote SpanID
	spans  []Span
	ids    map[SpanID]bool
	done   bool
}

// NewTrace starts a trace with fresh identifiers; name names the root
// span, opened now.
func NewTrace(name string) *Trace {
	return ContinueTrace(name, NewTraceID(), SpanID{})
}

// ContinueTrace starts a trace that continues an inbound trace context:
// the root span's parent is the remote caller's span.
func ContinueTrace(name string, tid TraceID, remoteParent SpanID) *Trace {
	if tid.IsZero() {
		tid = NewTraceID()
	}
	t := &Trace{
		id:     tid,
		remote: remoteParent,
		spans:  make([]Span, 0, 16),
		ids:    make(map[SpanID]bool, 16),
	}
	t.addLocked(Span{Parent: remoteParent, Name: name, Start: time.Now()})
	return t
}

// ID returns the trace identifier.
func (t *Trace) ID() TraceID { return t.id }

// Root returns the root span's identifier.
func (t *Trace) Root() SpanID {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[0].ID
}

// RootStart returns when the root span was opened.
func (t *Trace) RootStart() time.Time {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[0].Start
}

// addLocked appends sp under a fresh identifier, unique in the trace.
func (t *Trace) addLocked(sp Span) SpanID {
	sp.ID = NewSpanID()
	for t.ids[sp.ID] {
		sp.ID = NewSpanID()
	}
	t.ids[sp.ID] = true
	t.spans = append(t.spans, sp)
	return sp.ID
}

// RecordSpan adds a completed span with an explicit window — the commit
// path measures phases first and attributes them to traces afterwards.
// The span keeps attrs. After Finish it is a no-op returning the zero
// SpanID (a commit may outlive the request that submitted it).
func (t *Trace) RecordSpan(name string, parent SpanID, start, end time.Time, attrs ...Attr) SpanID {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.done {
		return SpanID{}
	}
	return t.addLocked(Span{Parent: parent, Name: name, Start: start, End: end, Attrs: attrs})
}

// Finish closes the root span now and freezes the trace into an
// immutable record. Further spans are ignored; Finish is idempotent and
// returns the same record.
func (t *Trace) Finish(attrs ...Attr) TraceRecord {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.done {
		t.spans[0].End = time.Now()
		t.spans[0].Attrs = append(t.spans[0].Attrs, attrs...)
		t.done = true
	}
	return TraceRecord{TraceID: t.id, Remote: t.remote, Spans: t.spans}
}

// FlightRecorder keeps the most recent N finished traces in a ring
// buffer, so the interesting window around an incident can be dumped
// (via /debug/traces) after the fact without any external
// collector. Add and Snapshot are safe for concurrent use.
type FlightRecorder struct {
	mu    sync.Mutex
	buf   []TraceRecord
	next  int
	n     int
	total uint64
}

// NewFlightRecorder sizes the ring to hold size traces; size must be
// positive.
func NewFlightRecorder(size int) *FlightRecorder {
	return &FlightRecorder{buf: make([]TraceRecord, size)}
}

// Add records one finished trace, evicting the oldest when full.
func (r *FlightRecorder) Add(rec TraceRecord) {
	r.mu.Lock()
	r.buf[r.next] = rec
	r.next = (r.next + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	}
	r.total++
	r.mu.Unlock()
}

// Snapshot returns the retained traces, oldest first.
func (r *FlightRecorder) Snapshot() []TraceRecord {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]TraceRecord, 0, r.n)
	start := r.next - r.n
	if start < 0 {
		start += len(r.buf)
	}
	for i := 0; i < r.n; i++ {
		out = append(out, r.buf[(start+i)%len(r.buf)])
	}
	return out
}

// Total reports how many traces have ever been added (including the
// evicted ones), so dumps can say how much history the ring dropped.
func (r *FlightRecorder) Total() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// chromeEvent is one Chrome trace-event ("X" = complete event, with
// microsecond timestamps). about:tracing and Perfetto load arrays of
// these directly.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   int64          `json:"ts"`
	Dur  int64          `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// WriteChromeTrace renders traces in the Chrome trace-event JSON format
// (the {"traceEvents": [...]} envelope). Each trace gets its own tid so
// concurrent requests stack as separate tracks in Perfetto.
func WriteChromeTrace(w io.Writer, recs []TraceRecord) error {
	events := make([]chromeEvent, 0, 64)
	for ti, rec := range recs {
		for _, sp := range rec.Spans {
			end := sp.End
			if end.IsZero() {
				end = sp.Start
			}
			args := map[string]any{
				"trace_id": rec.TraceID.String(),
				"span_id":  sp.ID.String(),
			}
			if !sp.Parent.IsZero() {
				args["parent_id"] = sp.Parent.String()
			}
			for _, a := range sp.Attrs {
				args[a.Key] = a.Value
			}
			events = append(events, chromeEvent{
				Name: sp.Name,
				Cat:  "mdl",
				Ph:   "X",
				TS:   sp.Start.UnixMicro(),
				Dur:  end.Sub(sp.Start).Microseconds(),
				PID:  1,
				TID:  ti + 1,
				Args: args,
			})
		}
	}
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	return enc.Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}
