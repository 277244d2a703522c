package server

import (
	"bytes"
	"encoding/json"
	"math"
	"runtime"
	"strings"
	"testing"

	"repro/datalog"
)

func encodeToString(v datalog.Value) string {
	var b bytes.Buffer
	encodeValue(&b, v)
	return b.String()
}

func TestEncodeValueAllKinds(t *testing.T) {
	cases := []struct {
		v    datalog.Value
		want string
	}{
		{datalog.Sym("a"), `"a"`},
		{datalog.Sym(`we"ird`), `"we\"ird"`},
		{datalog.Num(3.5), `3.5`},
		{datalog.Num(4), `4`},
		{datalog.Num(math.Inf(1)), `{"num":"inf"}`},
		{datalog.Num(math.Inf(-1)), `{"num":"-inf"}`},
		{datalog.Bool(true), `true`},
		{datalog.Bool(false), `false`},
		{datalog.Str("x"), `{"str":"x"}`},
		{datalog.SetOf(), `{"set":[]}`},
		// Canonical element order, regardless of construction order.
		{datalog.SetOf(datalog.Sym("b"), datalog.Sym("a")), `{"set":["a","b"]}`},
		// Nested sets encode recursively.
		{datalog.SetOf(datalog.SetOf(datalog.Num(1)), datalog.Num(2)), `{"set":[{"set":[1]},2]}`},
	}
	for _, c := range cases {
		if got := encodeToString(c.v); got != c.want {
			t.Errorf("encode(%s) = %s, want %s", c.v, got, c.want)
		}
	}
}

// TestValueRoundTrip decodes every encoding back to an equal value.
func TestValueRoundTrip(t *testing.T) {
	values := []datalog.Value{
		datalog.Sym("a"),
		datalog.Num(3.5),
		datalog.Num(math.Inf(1)),
		datalog.Num(math.Inf(-1)),
		datalog.Bool(true),
		datalog.Str("x"),
		datalog.Str(""),
		datalog.SetOf(datalog.Sym("a"), datalog.Num(1), datalog.Str("s")),
		datalog.SetOf(datalog.SetOf(datalog.Sym("a")), datalog.SetOf()),
	}
	for _, v := range values {
		enc := encodeToString(v)
		got, err := decodeValue(json.RawMessage(enc), false)
		if err != nil {
			t.Errorf("decode(%s): %v", enc, err)
			continue
		}
		if !got.Equal(v) {
			t.Errorf("round trip %s -> %s -> %s", v, enc, got)
		}
		// Determinism: re-encoding the decoded value is byte-identical.
		if re := encodeToString(got); re != enc {
			t.Errorf("re-encode %s differs: %s", enc, re)
		}
	}
}

// decodeOKCases are accepted alternative spellings of wire values.
var decodeOKCases = []struct {
	in   string
	want datalog.Value
}{
	{`{"num":7}`, datalog.Num(7)},       // numeric object form
	{`{"num":"7.5"}`, datalog.Num(7.5)}, // stringified number
	{`{"bool":true}`, datalog.Bool(true)},
	{`  "a" `, datalog.Sym("a")}, // surrounding whitespace
}

// decodeBadCases are wire forms decodeValue rejects, wildcards allowed.
var decodeBadCases = []string{
	``, `[1,2]`, `{"str":1}`, `{"num":"abc"}`, `{"set":{}}`,
	`{"frob":1}`, `{"str":"a","num":"1"}`, `{}`, `nul`, `tru`, `12x`,
	`{"set":[null]}`,                           // wildcard inside a set literal
	`{"num":"NaN"}`, `{"set":[{"num":"nan"}]}`, // NaN is no value
}

func TestDecodeValueForms(t *testing.T) {
	for _, c := range decodeOKCases {
		got, err := decodeValue(json.RawMessage(c.in), false)
		if err != nil || !got.Equal(c.want) {
			t.Errorf("decode(%s) = %v, %v; want %s", c.in, got, err, c.want)
		}
	}

	// Wildcards decode only where patterns are allowed.
	if v, err := decodeValue(json.RawMessage(`null`), true); err != nil || v.Kind() != datalog.AnyValue {
		t.Errorf("null with allowWild: %v, %v", v, err)
	}
	if _, err := decodeValue(json.RawMessage(`null`), false); err == nil {
		t.Error("null without allowWild must fail")
	}

	for _, in := range decodeBadCases {
		if v, err := decodeValue(json.RawMessage(in), true); err == nil {
			t.Errorf("decode(%s) = %v, want error", in, v)
		}
	}
}

// valueSeeds are further inputs of FuzzDecodeValue: the wildcard, the
// forms that keep the sign of a zero or need escapes, nested sets, white
// space encoding/json does not skip, trailing bytes and a lone surrogate.
var valueSeeds = []string{`null`, `{"num":"-inf"}`, `-0`, `{"str":"é\u0000"}`, `{"set":["b",1,{"set":[true]}]}`,
	"\u00a0\"a\"\v", `"a" "b"`, `{"str":"a"} x`, `[1,`, `{"str":"a","str":null}`, `"\ud83d\ude00\ud800"`}

// FuzzDecodeValue: decodeValue parses untrusted bytes (HTTP bodies and
// JSON WAL records), so it must never panic, and every constant it
// accepts must survive encodeValue and a second decode unchanged.
func FuzzDecodeValue(f *testing.F) {
	for _, c := range decodeOKCases {
		f.Add([]byte(c.in))
	}
	for _, in := range decodeBadCases {
		f.Add([]byte(in))
	}
	for _, in := range valueSeeds {
		f.Add([]byte(in))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := decodeValue(data, true)
		if err != nil || v.Kind() == datalog.AnyValue {
			return
		}
		enc := encodeToString(v)
		back, err := decodeValue(json.RawMessage(enc), false)
		if err != nil || !sameValue(back, v) {
			t.Fatalf("decode(%q) = %s encodes as %s, which decodes to %s, %v", data, v, enc, back, err)
		}
	})
}

func TestJSONRowsShape(t *testing.T) {
	rows := jsonRows{
		{datalog.Sym("a"), datalog.Num(1)},
		{datalog.Sym("b"), datalog.SetOf(datalog.Sym("x"))},
	}
	b, err := json.Marshal(map[string]any{"rows": rows})
	if err != nil {
		t.Fatal(err)
	}
	want := `{"rows":[["a",1],["b",{"set":["x"]}]]}`
	if string(b) != want {
		t.Fatalf("rows JSON %s, want %s", b, want)
	}
	if b, _ := json.Marshal(jsonRows{}); string(b) != `[]` {
		t.Fatalf("empty rows must be [], got %s", b)
	}
}

func TestDecodeArgsErrorsNamePosition(t *testing.T) {
	_, err := decodeArgs([]json.RawMessage{
		json.RawMessage(`"a"`), json.RawMessage(`[]`),
	}, false)
	if err == nil || !strings.Contains(err.Error(), "args[1]") {
		t.Fatalf("error must name the argument position: %v", err)
	}
}

// TestDecodeDeepSetIsLinear: a set nested 4,990 levels deep, near
// encoding/json's nesting limit, decodes with allocations proportional
// to its text. A decoder that re-reads the text at every level takes
// close to two gigabytes here.
func TestDecodeDeepSetIsLinear(t *testing.T) {
	const depth = 4990
	in := []byte(strings.Repeat(`{"set":[`, depth) + strings.Repeat(`]}`, depth))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	v, err := decodeValue(in, false)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	for range depth - 1 {
		elems, _ := v.Elems()
		if len(elems) != 1 {
			t.Fatalf("set has %d elements, want 1", len(elems))
		}
		v = elems[0]
	}
	if elems, _ := v.Elems(); v.Kind() != datalog.SetValue || len(elems) != 0 {
		t.Fatalf("innermost value %s, want {}", v)
	}
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(200*len(in)); got > limit {
		t.Fatalf("decoding %d bytes allocated %d bytes, want at most %d", len(in), got, limit)
	}
}
