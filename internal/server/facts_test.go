package server

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/datalog"
)

// sameValue reports whether two decoded values are the same value of the
// same kind, down to a zero's sign: their wire encodings are equal.
func sameValue(a, b datalog.Value) bool {
	return a.Kind() == b.Kind() && encodeToString(a) == encodeToString(b)
}

// sameFacts compares two fact lists value by value.
func sameFacts(a, b []datalog.Fact) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Pred != b[i].Pred || len(a[i].Args) != len(b[i].Args) {
			return false
		}
		for j := range a[i].Args {
			if !sameValue(a[i].Args[j], b[i].Args[j]) {
				return false
			}
		}
	}
	return true
}

// decodedFacts decodes a fact array and every argument of it as a
// constant, as checkFacts does, without holding the facts to a
// program's declarations.
func decodedFacts(data []byte) ([]datalog.Fact, error) {
	var fs []wireFact
	if err := json.Unmarshal(data, &fs); err != nil {
		return nil, err
	}
	facts := make([]datalog.Fact, len(fs))
	for i, f := range fs {
		args, err := decodeArgs(f.Args, false)
		if err != nil {
			return nil, fmt.Errorf("facts[%d]: %w", i, err)
		}
		facts[i] = datalog.NewFact(f.Pred, args...)
	}
	return facts, nil
}

// factsCorpus seeds FuzzDecodeFacts: every value case of json_test.go as
// an argument, WAL payloads, and the corners of encoding/json's reading
// — escapes, invalid UTF-8, key case folding, repeated and unknown keys,
// nulls, type mismatches, truncation and trailing bytes.
func factsCorpus() []string {
	var out []string
	wrap := func(arg string) string { return `[{"pred":"p","args":[` + arg + `]}]` }
	for _, c := range decodeOKCases {
		out = append(out, wrap(c.in))
	}
	for _, in := range decodeBadCases {
		out = append(out, wrap(in))
	}
	for _, fs := range [][]datalog.Fact{
		nil,
		{datalog.NewFact("arc", datalog.Sym("a"), datalog.Sym("b c"), datalog.Num(1.5))},
		{datalog.NewFact("arc", datalog.Sym(`q"\`), datalog.Sym("é "), datalog.Num(math.Inf(1))),
			datalog.NewFact("u", datalog.SetOf(datalog.Str("x"), datalog.SetOf(), datalog.Num(-0.25)), datalog.Bool(true))},
	} {
		out = append(out, string(encodeWALPayload(fs)))
	}
	for _, v := range []string{
		`-0`, `0.0e-5`, `1E+2`, `123456789012345678`, `1e400`, `{"num":1e400}`,
		`{"num":"0x1p-2"}`, `{"num":"+Inf"}`, `{"num":"1_0"}`, `{"num":" 1"}`, `{"num":true}`,
		`{"str":null}`, `{"set":null}`, `{"bool":null}`, `{"num":null}`,
		`{"str":"a","str":"b"}`, `{"str":1,"str":"c"}`, `{"str":"a","num":1,"str":"b"}`,
		`{"s\u0074r":"x"}`, `{"Str":"x"}`, `{"set":[1,[2]]}`, `{"set":[{"num":"inf"},{"str":"\u00e9"}]}`,
		`"😀"`, `"\ud83d\ude00"`, `"\ud800"`, `"\udc00x"`, `"\ud800A"`, `"\ud800\u0041"`, `"a\\b\"\/\b\f\n\r\t"`,
		"\"\xff\xfe\"", "\"\xed\xa0\x80\"", "\"ok\xc3\"", `"a\'"`, "\"tab\there\"", `tru`, `1.`, `-`, `.5`,
	} {
		out = append(out, wrap(v))
	}
	return append(out,
		`null`, ` [ ] `, `[null]`, `[{}]`, `{}`, `"x"`, `[1]`, `[[]]`, `[,]`,
		`[{"PRED":"p","Args":[1]}]`, `[{"pReD":"p","ARGſ":[1]}]`, `[{"prec":"p","argz":[1]}]`, `[{"pr\u0065d":"p","args":[]}]`,
		`[{"pred":"p","pred":"q","args":[[1]],"args":[2]}]`,
		`[{"pred":"p","pred":null,"args":[1],"args":null}]`,
		`[{"pred":"p","extra":{"a":[1,{"b":null}]},"args":[1]}]`,
		`[{"pred":1,"args":[1]}]`, `[{"pred":"p","args":"x"}]`, `[{"pred":"p","args":{"0":1}}]`,
		`[{"pred":"p","args":[1]}`, `[{"pred":"p","args":[1]}] x`, `[{"pred":"p","args":[01]}]`,
		`[{"pred":"p","args":[1,]}]`, `[{"pred":"p",}]`,
		`[{"pred":"p","args":[`+strings.Repeat(`{"set":[`, 20)+strings.Repeat(`]}`, 20)+`]}]`,
	)
}

// FuzzDecodeFacts: a fact array is untrusted bytes (an HTTP body or a
// JSON WAL record). Decoding it must never panic, and the facts it gives
// must come back unchanged through encodeWALPayload and a second decode.
func FuzzDecodeFacts(f *testing.F) {
	for _, in := range factsCorpus() {
		f.Add([]byte(in))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := decodedFacts(data)
		if err != nil {
			return
		}
		enc := encodeWALPayload(got)
		back, err := decodedFacts(enc)
		if err != nil || !sameFacts(back, got) {
			t.Fatalf("decode(%q) = %v encodes as %s, which decodes to %v, %v", data, got, enc, back, err)
		}
	})
}

// TestDecodeNestingLimit: a JSON WAL record replays with encoding/json's
// limit of 10,000 nested arrays and objects, and one level more fails
// its replay.
func TestDecodeNestingLimit(t *testing.T) {
	s, err := New([]ProgramSpec{{Name: "sp", Source: recordSrc}}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	svc := s.svcs["sp"]
	const maxNesting = 10000
	for _, depth := range []int{maxNesting, maxNesting + 1} {
		// The fact array and its object are two levels; an unknown key
		// holds the rest.
		in := []byte(`[{"pred":"p","args":["n"],"x":` + strings.Repeat(`[`, depth-2) + strings.Repeat(`]`, depth-2) + `}]`)
		m, err := replayed(svc, in)
		if ok := err == nil && m.Has("p", datalog.Sym("n")); ok != (depth <= maxNesting) {
			t.Errorf("depth %d: error %v", depth, err)
		}
	}
}

// TestDecodeFactsErrors pins what the assert path and WAL replay report
// for a batch whose facts fail the declarations, and in which order a
// batch's faults are found.
func TestDecodeFactsErrors(t *testing.T) {
	s, err := New([]ProgramSpec{{Name: "sp", Source: loadExample(t, "shortestpath.mdl")}}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	svc := s.svcs["sp"]
	for _, c := range []struct {
		in, want string
		unknown  bool
	}{
		{`[{"pred":"nosuch","args":[1]}]`, `program sp has no predicate "nosuch"`, true},
		{`[{"pred":"arc","args":[1]}]`, `facts[0]: arc takes 3 arguments (cost last for cost predicates), got 1`, false},
		{`[{"pred":"arc","args":["a","b",null]}]`, `facts[0]: args[2]: null (wildcard) is not a constant`, false},
		// Facts are checked in order, each for predicate, arity, then
		// arguments: a bad argument is reported only once the facts
		// before it passed.
		{`[{"pred":"arc","args":["a",[1],1]},{"pred":"nosuch"}]`, `facts[0]: args[1]: bad value [1] (sets are written {"set":[...]})`, false},
		{`[{"pred":"nosuch"},{"pred":"arc","args":["a",[1],1]}]`, `program sp has no predicate "nosuch"`, true},
		{`[{"pred":"arc","args":["a",{"num":"x"}]}]`, `facts[0]: arc takes 3 arguments (cost last for cost predicates), got 2`, false},
		{`[{"pred":"arc","args":["a","b",1]},{"pred":"arc","args":["a","b",{"set":[1,{"num":"nan"}]}]}]`, `facts[1]: args[2]: set element 1: bad number "nan"`, false},
	} {
		var b []wireFact
		if err := json.Unmarshal([]byte(c.in), &b); err != nil {
			t.Fatalf("decode(%s): %v", c.in, err)
		}
		_, ferr := svc.checkFacts(b)
		if ferr == nil || ferr.msg != c.want || ferr.unknownPred != c.unknown {
			t.Errorf("check(%s) = %+v, want %q (unknown predicate %v)", c.in, ferr, c.want, c.unknown)
		}
	}
}
