package obs

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

func TestTraceparentRoundTrip(t *testing.T) {
	tid, sid := NewTraceID(), NewSpanID()
	h := Traceparent(tid, sid)
	if len(h) != 55 {
		t.Fatalf("header length %d, want 55: %q", len(h), h)
	}
	gotTID, gotSID, ok := ParseTraceparent(h)
	if !ok || gotTID != tid || gotSID != sid {
		t.Fatalf("round trip failed: %q -> (%v, %v, %v)", h, gotTID, gotSID, ok)
	}
}

func TestParseTraceparentMalformed(t *testing.T) {
	valid := "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	if _, _, ok := ParseTraceparent(valid); !ok {
		t.Fatalf("reference header rejected: %q", valid)
	}
	reject := map[string]string{
		"empty":          "",
		"short":          "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7",
		"bad dash 2":     "00x4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
		"bad dash 35":    "00-4bf92f3577b34da6a3ce929d0e0e4736x00f067aa0ba902b7-01",
		"bad dash 52":    "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7x01",
		"version ff":     "ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
		"bad version":    "zz-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
		"zero trace id":  "00-00000000000000000000000000000000-00f067aa0ba902b7-01",
		"zero span id":   "00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01",
		"bad trace hex":  "00-4bf92f3577b34da6a3ce929d0e0e473g-00f067aa0ba902b7-01",
		"bad span hex":   "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902bg-01",
		"bad flags hex":  "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-0g",
		"v00 w/ suffix":  "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-extra",
		"v01 bad suffix": "01-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01x",
	}
	for name, h := range reject {
		if _, _, ok := ParseTraceparent(h); ok {
			t.Errorf("%s: accepted malformed header %q", name, h)
		}
	}
	// A future version may append dash-separated fields after the fixed
	// 55-byte prefix.
	future := "01-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-future"
	if _, _, ok := ParseTraceparent(future); !ok {
		t.Errorf("future-version header with suffix rejected: %q", future)
	}
}

func TestTraceSpansAndFinish(t *testing.T) {
	tr := NewTrace("root")
	root := tr.Root()
	if root.IsZero() {
		t.Fatal("zero root span id")
	}
	start := tr.RootStart()
	child := tr.RecordSpan("child", root, start, start.Add(2*time.Millisecond), StringAttr("k", "v"))
	grand := tr.RecordSpan("grand", child, start, start.Add(time.Millisecond), IntAttr("n", 7))
	rec := tr.Finish()

	if rec.TraceID != tr.ID() || !rec.Remote.IsZero() {
		t.Fatalf("record identity wrong: %+v", rec)
	}
	if len(rec.Spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(rec.Spans))
	}
	if rec.Root().ID != root || !rec.Root().Parent.IsZero() {
		t.Fatalf("root span wrong: %+v", rec.Root())
	}
	byID := map[SpanID]Span{}
	for _, sp := range rec.Spans {
		byID[sp.ID] = sp
	}
	if byID[child].Parent != root || byID[grand].Parent != child {
		t.Fatal("parentage broken")
	}
	// Recorded spans keep their windows and attributes.
	if c := byID[child]; !c.Start.Equal(start) || c.End.Sub(c.Start) != 2*time.Millisecond ||
		len(c.Attrs) != 1 || c.Attrs[0] != StringAttr("k", "v") {
		t.Fatalf("child span %+v lost its window or attributes", c)
	}
	if g := byID[grand]; len(g.Attrs) != 1 || g.Attrs[0] != IntAttr("n", 7) {
		t.Fatalf("grand span attributes %v", g.Attrs)
	}
	for _, sp := range rec.Spans {
		if sp.End.Before(sp.Start) {
			t.Fatalf("span %q ends before it starts", sp.Name)
		}
		if sp.End.IsZero() {
			t.Fatalf("span %q left open after Finish", sp.Name)
		}
	}

	// Finish is idempotent, and spans after Finish are ignored.
	if id := tr.RecordSpan("late", root, time.Now(), time.Now()); !id.IsZero() {
		t.Fatal("RecordSpan after Finish returned a live span")
	}
	rec2 := tr.Finish(StringAttr("late", "y"))
	if len(rec2.Spans) != 3 {
		t.Fatalf("second Finish changed span count: %d", len(rec2.Spans))
	}
	for _, a := range rec2.Root().Attrs {
		if a.Key == "late" {
			t.Fatal("attribute added after Finish")
		}
	}
}

func TestContinueTraceKeepsRemoteParent(t *testing.T) {
	tid, parent := NewTraceID(), NewSpanID()
	tr := ContinueTrace("root", tid, parent)
	rec := tr.Finish()
	if rec.TraceID != tid || rec.Remote != parent || rec.Root().Parent != parent {
		t.Fatalf("continued trace lost inbound context: %+v", rec)
	}
}

func TestFlightRecorderWraparound(t *testing.T) {
	r := NewFlightRecorder(4)
	var want []TraceID
	for i := 0; i < 10; i++ {
		tr := NewTrace("t")
		rec := tr.Finish()
		r.Add(rec)
		want = append(want, rec.TraceID)
	}
	if got := r.Total(); got != 10 {
		t.Fatalf("Total() = %d, want 10", got)
	}
	snap := r.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("retained %d traces, want 4", len(snap))
	}
	// Oldest first: the last four added, in order.
	for i, rec := range snap {
		if rec.TraceID != want[6+i] {
			t.Fatalf("snapshot[%d] = %v, want %v", i, rec.TraceID, want[6+i])
		}
		if len(rec.Spans) == 0 || rec.Spans[0].ID.IsZero() {
			t.Fatalf("snapshot[%d] not self-consistent: %+v", i, rec)
		}
	}
}

func TestWriteChromeTrace(t *testing.T) {
	tr := NewTrace("root")
	tr.RecordSpan("phase", tr.Root(), tr.RootStart(), time.Now(), IntAttr("rows", 5))
	rec := tr.Finish()

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, []TraceRecord{rec}); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			TID  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("invalid trace-event JSON: %v\n%s", err, buf.String())
	}
	if len(out.TraceEvents) != 2 {
		t.Fatalf("got %d events, want 2", len(out.TraceEvents))
	}
	for _, ev := range out.TraceEvents {
		if ev.Ph != "X" || ev.TID != 1 {
			t.Fatalf("event shape wrong: %+v", ev)
		}
		if ev.Args["trace_id"] != rec.TraceID.String() {
			t.Fatalf("event %q missing trace_id arg: %v", ev.Name, ev.Args)
		}
	}
}
