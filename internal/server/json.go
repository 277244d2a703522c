package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strconv"

	"repro/datalog"
)

// JSON encoding of rule-language values. The wire format keeps the
// common cases bare and disambiguates the rest with one-key objects:
//
//	symbol a      <->  "a"
//	number 3.5    <->  3.5        (±infinity as {"num":"inf"} / {"num":"-inf"}; no NaN)
//	boolean       <->  true / false
//	string "x"    <->  {"str":"x"}
//	set {a, b}    <->  {"set":["a","b"]}   (canonical element order)
//	wildcard      <->  null       (query patterns only)
//
// Encoding is deterministic: equal values produce identical bytes (set
// elements are emitted in the canonical sorted order the engine already
// maintains, numbers via strconv's shortest round-trip form, object
// keys are fixed), so responses are directly comparable in golden tests.

// encodeValue appends the deterministic JSON encoding of v to b.
func encodeValue(b *bytes.Buffer, v datalog.Value) {
	switch v.Kind() {
	case datalog.SymValue:
		t, _ := v.Text()
		enc, _ := json.Marshal(t)
		b.Write(enc)
	case datalog.NumValue:
		n, _ := v.Float()
		switch {
		case math.IsInf(n, 1):
			b.WriteString(`{"num":"inf"}`)
		case math.IsInf(n, -1):
			b.WriteString(`{"num":"-inf"}`)
		default:
			b.WriteString(strconv.FormatFloat(n, 'g', -1, 64))
		}
	case datalog.BoolValue:
		t, _ := v.Truth()
		if t {
			b.WriteString("true")
		} else {
			b.WriteString("false")
		}
	case datalog.StrValue:
		t, _ := v.Text()
		enc, _ := json.Marshal(t)
		b.WriteString(`{"str":`)
		b.Write(enc)
		b.WriteByte('}')
	case datalog.SetValue:
		elems, _ := v.Elems()
		b.WriteString(`{"set":[`)
		for i, e := range elems {
			if i > 0 {
				b.WriteByte(',')
			}
			encodeValue(b, e)
		}
		b.WriteString(`]}`)
	default:
		b.WriteString("null")
	}
}

// encodeRow encodes one tuple as a JSON array of values.
func encodeRow(b *bytes.Buffer, row []datalog.Value) {
	b.WriteByte('[')
	for i, v := range row {
		if i > 0 {
			b.WriteByte(',')
		}
		encodeValue(b, v)
	}
	b.WriteByte(']')
}

// jsonValue wraps a Value for use inside encoding/json structures.
type jsonValue struct{ v datalog.Value }

func (j jsonValue) MarshalJSON() ([]byte, error) {
	var b bytes.Buffer
	encodeValue(&b, j.v)
	return b.Bytes(), nil
}

// jsonRows wraps a row set for use inside encoding/json structures.
type jsonRows [][]datalog.Value

func (j jsonRows) MarshalJSON() ([]byte, error) {
	var b bytes.Buffer
	b.WriteByte('[')
	for i, row := range j {
		if i > 0 {
			b.WriteByte(',')
		}
		encodeRow(&b, row)
	}
	b.WriteByte(']')
	return b.Bytes(), nil
}

// Decoding. Wire values arrive in two shapes: the fact array
//
//	[{"pred":"arc","args":["a","b",1]}, ...]
//
// of a /v1/assert batch and of a WAL record written before records were
// binary (see wal.go), and the argument lists of /v1/query and
// /v1/explain. encoding/json reads the JSON; decodeValue reads each
// argument by the value forms of docs/SERVER.md "Value encoding", the
// one statement of what the wire accepts.

// wireFact is one fact of a fact array with its arguments still raw:
// checkFacts decodes them once the predicate and the arity have passed.
type wireFact struct {
	Pred string            `json:"pred"`
	Args []json.RawMessage `json:"args"`
}

// decodeValue parses one wire value, surrounded by any white space.
// allowWild admits null wildcards (query patterns); asserts reject them.
// The text is read once, into encoding/json's generic tree, so the cost
// is linear in its length however deep its sets nest.
func decodeValue(raw []byte, allowWild bool) (datalog.Value, error) {
	trimmed := bytes.TrimSpace(raw)
	if len(trimmed) == 0 {
		return datalog.Value{}, fmt.Errorf("empty value")
	}
	var x any
	if err := json.Unmarshal(trimmed, &x); err != nil {
		return datalog.Value{}, fmt.Errorf("bad value %s", trimmed)
	}
	return treeValue(x, allowWild)
}

// treeValue converts one decoded JSON value by the wire forms.
func treeValue(x any, allowWild bool) (datalog.Value, error) {
	switch x := x.(type) {
	case nil:
		if !allowWild {
			return datalog.Value{}, fmt.Errorf("null (wildcard) is not a constant")
		}
		return datalog.Any(), nil
	case bool:
		return datalog.Bool(x), nil
	case string:
		return datalog.Sym(x), nil
	case float64:
		return datalog.Num(x), nil
	case map[string]any:
		if len(x) != 1 {
			return datalog.Value{}, fmt.Errorf("value object must have exactly one of \"str\", \"num\", \"set\", got %s", jsonText(x))
		}
		for form, inner := range x {
			return objectValue(form, inner, x)
		}
	}
	return datalog.Value{}, fmt.Errorf("bad value %s (sets are written {\"set\":[...]})", jsonText(x))
}

// objectValue converts inner, the one member of the value object obj,
// by its key. A null member reads as the zero value of its form: "", an
// empty set, false (and, for "num", the unparsable string "").
func objectValue(form string, inner any, obj map[string]any) (datalog.Value, error) {
	switch form {
	case "str":
		s, ok := inner.(string)
		if !ok && inner != nil {
			return datalog.Value{}, fmt.Errorf("bad string value %s", jsonText(obj))
		}
		return datalog.Str(s), nil
	case "num":
		switch n := inner.(type) {
		case float64:
			return datalog.Num(n), nil
		case string, nil:
			s, _ := n.(string)
			switch s {
			case "inf":
				return datalog.Num(math.Inf(1)), nil
			case "-inf":
				return datalog.Num(math.Inf(-1)), nil
			}
			f, err := strconv.ParseFloat(s, 64)
			if err != nil || math.IsNaN(f) {
				return datalog.Value{}, fmt.Errorf("bad number %q", s)
			}
			return datalog.Num(f), nil
		}
		return datalog.Value{}, fmt.Errorf("bad number value %s", jsonText(obj))
	case "set":
		elems, ok := inner.([]any)
		if !ok && inner != nil {
			return datalog.Value{}, fmt.Errorf("bad set value %s", jsonText(obj))
		}
		vs := make([]datalog.Value, len(elems))
		for i, e := range elems {
			v, err := treeValue(e, false)
			if err != nil {
				return datalog.Value{}, fmt.Errorf("set element %d: %w", i, err)
			}
			vs[i] = v
		}
		return datalog.SetOf(vs...), nil
	case "bool":
		b, ok := inner.(bool)
		if !ok && inner != nil {
			return datalog.Value{}, fmt.Errorf("bad bool value %s", jsonText(obj))
		}
		return datalog.Bool(b), nil
	}
	return datalog.Value{}, fmt.Errorf("unknown value form %q", form)
}

// jsonText renders a decoded JSON value for an error message.
func jsonText(x any) []byte {
	b, _ := json.Marshal(x)
	return b
}

// decodeArgs parses a JSON argument array.
func decodeArgs(raw []json.RawMessage, allowWild bool) ([]datalog.Value, error) {
	out := make([]datalog.Value, len(raw))
	for i, r := range raw {
		v, err := decodeValue(r, allowWild)
		if err != nil {
			return nil, fmt.Errorf("args[%d]: %w", i, err)
		}
		out[i] = v
	}
	return out, nil
}
