package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/datalog"
)

// The reference decoders: the fact array and the wire value as they were
// read with encoding/json — one json.Unmarshal per record and one per
// argument. decodeFacts and decodeValue must accept exactly what these
// accept and give the same values; FuzzDecodeFacts and FuzzDecodeValue
// hold them to it.

// refDecodeFacts reads a fact array through encoding/json and
// refDecodeValue.
func refDecodeFacts(data []byte) ([]datalog.Fact, error) {
	var recs []struct {
		Pred string            `json:"pred"`
		Args []json.RawMessage `json:"args"`
	}
	if err := json.Unmarshal(data, &recs); err != nil {
		return nil, err
	}
	facts := make([]datalog.Fact, len(recs))
	for i, f := range recs {
		args := make([]datalog.Value, len(f.Args))
		for j, raw := range f.Args {
			v, err := refDecodeValue(raw, false)
			if err != nil {
				return nil, fmt.Errorf("facts[%d]: args[%d]: %w", i, j, err)
			}
			args[j] = v
		}
		facts[i] = datalog.NewFact(f.Pred, args...)
	}
	return facts, nil
}

// refDecodeValue parses one wire value with encoding/json.
func refDecodeValue(raw []byte, allowWild bool) (datalog.Value, error) {
	trimmed := bytes.TrimSpace(raw)
	if len(trimmed) == 0 {
		return datalog.Value{}, fmt.Errorf("empty value")
	}
	switch trimmed[0] {
	case 'n':
		var z any
		if err := json.Unmarshal(trimmed, &z); err != nil || z != nil {
			return datalog.Value{}, fmt.Errorf("bad value %s", trimmed)
		}
		if !allowWild {
			return datalog.Value{}, fmt.Errorf("null (wildcard) is not a constant")
		}
		return datalog.Any(), nil
	case 't', 'f':
		var b bool
		if err := json.Unmarshal(trimmed, &b); err != nil {
			return datalog.Value{}, fmt.Errorf("bad value %s", trimmed)
		}
		return datalog.Bool(b), nil
	case '"':
		var s string
		if err := json.Unmarshal(trimmed, &s); err != nil {
			return datalog.Value{}, fmt.Errorf("bad value %s", trimmed)
		}
		return datalog.Sym(s), nil
	case '{':
		var obj map[string]json.RawMessage
		if err := json.Unmarshal(trimmed, &obj); err != nil {
			return datalog.Value{}, fmt.Errorf("bad value %s", trimmed)
		}
		if len(obj) != 1 {
			return datalog.Value{}, fmt.Errorf("value object must have exactly one member, got %s", trimmed)
		}
		for key, inner := range obj {
			return refObjectValue(key, inner, trimmed)
		}
	case '[':
		return datalog.Value{}, fmt.Errorf("bad value %s (sets are written {\"set\":[...]})", trimmed)
	}
	var n float64
	if err := json.Unmarshal(trimmed, &n); err != nil {
		return datalog.Value{}, fmt.Errorf("bad value %s", trimmed)
	}
	return datalog.Num(n), nil
}

// refObjectValue decodes the one member of a value object.
func refObjectValue(key string, inner, raw []byte) (datalog.Value, error) {
	switch key {
	case "str":
		var s string
		if err := json.Unmarshal(inner, &s); err != nil {
			return datalog.Value{}, fmt.Errorf("bad string value %s", raw)
		}
		return datalog.Str(s), nil
	case "num":
		var s string
		if err := json.Unmarshal(inner, &s); err == nil {
			switch s {
			case "inf":
				return datalog.Num(math.Inf(1)), nil
			case "-inf":
				return datalog.Num(math.Inf(-1)), nil
			}
			n, perr := strconv.ParseFloat(s, 64)
			if perr != nil || math.IsNaN(n) {
				return datalog.Value{}, fmt.Errorf("bad number %q", s)
			}
			return datalog.Num(n), nil
		}
		var n float64
		if err := json.Unmarshal(inner, &n); err != nil {
			return datalog.Value{}, fmt.Errorf("bad number value %s", raw)
		}
		return datalog.Num(n), nil
	case "set":
		var elems []json.RawMessage
		if err := json.Unmarshal(inner, &elems); err != nil {
			return datalog.Value{}, fmt.Errorf("bad set value %s", raw)
		}
		vs := make([]datalog.Value, len(elems))
		for i, e := range elems {
			v, err := refDecodeValue(e, false)
			if err != nil {
				return datalog.Value{}, fmt.Errorf("set element %d: %w", i, err)
			}
			vs[i] = v
		}
		return datalog.SetOf(vs...), nil
	case "bool":
		var b bool
		if err := json.Unmarshal(inner, &b); err != nil {
			return datalog.Value{}, fmt.Errorf("bad bool value %s", raw)
		}
		return datalog.Bool(b), nil
	}
	return datalog.Value{}, fmt.Errorf("unknown value form %q", key)
}

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

// decodedFacts runs decodeFacts and reports any failure, an argument
// that is no constant included, as an error.
func decodedFacts(data []byte) ([]datalog.Fact, error) {
	b, err := decodeFacts(data)
	if err != nil {
		return nil, err
	}
	if b.argErr != nil {
		return nil, fmt.Errorf("facts[%d]: %w", b.argAt, b.argErr)
	}
	return b.facts, nil
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

// FuzzDecodeFacts: decodeFacts reads untrusted bytes (HTTP bodies and WAL
// records). It must never panic, it must fail exactly where the
// encoding/json reference fails and otherwise give the same facts, and
// what it gives must come back unchanged through encodeWALPayload.
func FuzzDecodeFacts(f *testing.F) {
	for _, in := range factsCorpus() {
		f.Add([]byte(in))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := decodedFacts(data)
		want, refErr := refDecodeFacts(data)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("decode(%q): error %v, reference error %v", data, err, refErr)
		}
		if err != nil {
			return
		}
		if !sameFacts(got, want) {
			t.Fatalf("decode(%q) = %v, reference %v", data, got, want)
		}
		enc := encodeWALPayload(got)
		back, err := decodedFacts(enc)
		if err != nil || !sameFacts(back, got) {
			t.Fatalf("decode(%q) = %v encodes as %s, which decodes to %v, %v", data, got, enc, back, err)
		}
	})
}

// TestDecodeNestingLimit: like encoding/json, the scanner reads 10,000
// nested arrays and objects and refuses one more.
func TestDecodeNestingLimit(t *testing.T) {
	for _, depth := range []int{maxNesting, maxNesting + 1} {
		// The fact array and its object are two levels; an unknown key
		// holds the rest.
		in := []byte(`[{"pred":"p","x":` + strings.Repeat(`[`, depth-2) + strings.Repeat(`]`, depth-2) + `}]`)
		_, err := decodedFacts(in)
		_, refErr := refDecodeFacts(in)
		if (err == nil) != (depth <= maxNesting) || (refErr == nil) != (err == nil) {
			t.Errorf("depth %d: error %v, reference error %v", depth, err, refErr)
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
		b, err := decodeFacts([]byte(c.in))
		if err != nil {
			t.Fatalf("decode(%s): %v", c.in, err)
		}
		_, ferr := svc.checkFacts(b)
		if ferr == nil || ferr.msg != c.want || ferr.unknownPred != c.unknown {
			t.Errorf("check(%s) = %+v, want %q (unknown predicate %v)", c.in, ferr, c.want, c.unknown)
		}
	}
}
