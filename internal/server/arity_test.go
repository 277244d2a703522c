package server

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/datalog"
)

// arityProgram uses the name p at two arities: p/1 and p/2 are two
// predicates, and a fact or a lookup picks one by its argument count.
const arityProgram = "p(a). p(a, b). q(X) :- p(X, Y).\n"

// TestMultiArityAssertAndQuery: asserts, queries and explanations of a
// name declared at two arities reach the declaration of their own
// arity; an argument count no declaration of the name takes is refused
// with the text it always had, naming the name's first declaration.
func TestMultiArityAssertAndQuery(t *testing.T) {
	_, ts := startServer(t, []ProgramSpec{{Name: "ar", Source: arityProgram}}, Config{})
	for _, c := range []struct {
		path, body string
		code       int
		field      string
		want       any
	}{
		{"/v1/query", `{"op":"has","pred":"p","args":["a","b"]}`, 200, "found", true},
		{"/v1/query", `{"op":"has","pred":"p","args":["a"]}`, 200, "found", true},
		{"/v1/query", `{"op":"facts","pred":"p","args":["a",null]}`, 200, "count", 1.0},
		{"/v1/explain", `{"pred":"p","args":["a","b"]}`, 200, "rule", "[fact]"},
		{"/v1/assert", `{"facts":[{"pred":"p","args":["c","d"]},{"pred":"p","args":["e"]}]}`, 200, "asserted", 2.0},
		{"/v1/query", `{"op":"has","pred":"p","args":["c","d"]}`, 200, "found", true},
		{"/v1/query", `{"op":"has","pred":"q","args":["c"]}`, 200, "found", true},
		{"/v1/query", `{"op":"has","pred":"p","args":["a","b","c"]}`, 400, "message", "p takes 1 lookup arguments, got 3"},
		{"/v1/explain", `{"pred":"p","args":["a","b","c"]}`, 400, "message", "p takes 1 lookup arguments, got 3"},
		{"/v1/assert", `{"facts":[{"pred":"p","args":["c","d","e"]}]}`, 400, "message",
			"facts[0]: p takes 1 arguments (cost last for cost predicates), got 3"},
	} {
		code, resp := post(t, ts.URL+c.path, c.body)
		got := resp[c.field]
		if e, ok := resp["error"].(map[string]any); ok {
			got = e[c.field]
		}
		if code != c.code || got != c.want {
			t.Errorf("%s %s: %d %v, want %d with %s %v", c.path, c.body, code, resp, c.code, c.field, c.want)
		}
	}
}

// TestMultiArityReplay: facts of either arity of a name replay from the
// log, from binary records and from JSON records alike.
func TestMultiArityReplay(t *testing.T) {
	cfg := Config{WALDir: t.TempDir()}
	s1 := newWALServer(t, arityProgram, cfg)
	ts := httptest.NewServer(s1.Handler())
	if code, resp := post(t, ts.URL+"/v1/assert", `{"facts":[{"pred":"p","args":["c","d"]},{"pred":"p","args":["e"]}]}`); code != http.StatusOK {
		t.Fatalf("assert: %d %v", code, resp)
	}
	ts.Close()
	s1.Close()

	s2 := newWALServer(t, arityProgram, cfg)
	defer s2.Close()
	svc := s2.svcs["sp"]
	m := svc.current().model
	if !m.Has("p", datalog.Sym("c"), datalog.Sym("d")) || !m.Has("p", datalog.Sym("e")) || !m.Has("q", datalog.Sym("c")) {
		t.Fatalf("binary records replayed to\n%s", m)
	}

	legacy := encodeWALPayload([]datalog.Fact{
		datalog.NewFact("p", datalog.Sym("x"), datalog.Sym("y")), datalog.NewFact("p", datalog.Sym("z")),
	})
	m, err := replayed(svc, legacy)
	if err != nil {
		t.Fatalf("JSON record %s: %v", legacy, err)
	}
	if !m.Has("p", datalog.Sym("x"), datalog.Sym("y")) || !m.Has("p", datalog.Sym("z")) || !m.Has("q", datalog.Sym("x")) {
		t.Fatalf("JSON record %s replayed to\n%s", legacy, m)
	}
}

// TestMultiArityCostLookup: a name declared at p/2 and at the cost
// predicate p/3 takes two lookup arguments at both; has finds a tuple of
// either, and cost reads the cost predicate.
func TestMultiArityCostLookup(t *testing.T) {
	_, ts := startServer(t, []ProgramSpec{{Name: "ar", Source: ".cost p/3 : minreal.\np(a, b).\np(a, c, 1).\n"}}, Config{})
	for _, c := range []struct {
		body  string
		field string
		want  any
	}{
		{`{"op":"has","pred":"p","args":["a","b"]}`, "found", true},
		{`{"op":"has","pred":"p","args":["a","c"]}`, "found", true},
		{`{"op":"cost","pred":"p","args":["a","c"]}`, "cost", 1.0},
		{`{"op":"cost","pred":"p","args":["a","b"]}`, "found", false},
		{`{"op":"facts","pred":"p","args":["a",null]}`, "count", 2.0},
	} {
		code, resp := post(t, ts.URL+"/v1/query", c.body)
		if code != http.StatusOK || resp[c.field] != c.want {
			t.Errorf("%s: %d %v, want %s %v", c.body, code, resp, c.field, c.want)
		}
	}
}
