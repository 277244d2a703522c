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

// decodeValue parses one wire value. allowWild admits null wildcards
// (query patterns); asserts reject them.
func decodeValue(raw json.RawMessage, allowWild bool) (datalog.Value, error) {
	trimmed := bytes.TrimSpace(raw)
	if len(trimmed) == 0 {
		return datalog.Value{}, fmt.Errorf("empty value")
	}
	switch trimmed[0] {
	case 'n': // null
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
		return decodeObjectValue(trimmed, allowWild)
	case '[':
		return datalog.Value{}, fmt.Errorf("bad value %s (sets are written {\"set\":[...]})", trimmed)
	default:
		var n float64
		if err := json.Unmarshal(trimmed, &n); err != nil {
			return datalog.Value{}, fmt.Errorf("bad value %s", trimmed)
		}
		return datalog.Num(n), nil
	}
}

func decodeObjectValue(raw []byte, allowWild bool) (datalog.Value, error) {
	var obj map[string]json.RawMessage
	if err := json.Unmarshal(raw, &obj); err != nil {
		return datalog.Value{}, fmt.Errorf("bad value %s", raw)
	}
	if len(obj) != 1 {
		return datalog.Value{}, fmt.Errorf("value object must have exactly one of \"str\", \"num\", \"set\", got %s", raw)
	}
	for key, inner := range obj {
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
				v, err := decodeValue(e, false)
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
		default:
			return datalog.Value{}, fmt.Errorf("unknown value form %q", key)
		}
	}
	return datalog.Value{}, fmt.Errorf("bad value %s", raw)
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
