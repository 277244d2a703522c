package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strconv"
	"unicode/utf16"
	"unicode/utf8"

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
// /v1/explain. All of them are read by one
// single-pass scanner that checks the JSON syntax and builds the values
// as it goes: no reflection, no json.RawMessage copies, and no
// allocation beyond the facts, strings, sets and argument slices it
// returns.
//
// It accepts exactly what encoding/json followed by the value rules
// below accepts, and gives the same values: RFC 8259 syntax and
// encoding/json's nesting limit; strings unescaped as encoding/json does
// (an invalid UTF-8 byte or an unpaired surrogate becomes U+FFFD); a fact
// object's keys matched to "pred" and "args" case-insensitively, unknown
// keys skipped, a repeated key keeping its last value, and a null "pred"
// leaving the name as it was; a null array or "args" reading as empty.
//
// A value is one of:
//
//	"a"                 symbol
//	3.5                 number (a JSON number that fits a float64)
//	true / false        boolean
//	null                wildcard, where patterns are allowed
//	{"str":"x"}         string; {"str":null} is ""
//	{"num":7}           number; {"num":"7.5"}, {"num":"inf"}, {"num":"-inf"}
//	                    spell it as a string (strconv.ParseFloat; no NaN)
//	{"set":[...]}       set of constants; {"set":null} is the empty set
//	{"bool":true}       boolean; {"bool":null} is false
//
// A value object must hold one distinct key; a repeated key keeps its
// last value, as a Go map would.

// maxNesting is encoding/json's limit on nested arrays and objects.
const maxNesting = 10000

// jsonScanner reads JSON from data. A syntax error stops the scan: it is
// kept in err, and every later read returns at once. Errors in what the
// JSON says (a bad number, an unknown value form) are returned by the
// methods that decode values, after the value has been scanned, so the
// caller can go on reading.
type jsonScanner struct {
	data  []byte
	pos   int
	depth int
	err   error
	// args collects one fact's arguments before they are copied out.
	args []datalog.Value
}

// fail records a syntax error at the current position and ends the scan.
func (s *jsonScanner) fail(context string) {
	if s.err == nil {
		if s.pos >= len(s.data) {
			s.err = fmt.Errorf("unexpected end of JSON input")
		} else {
			s.err = fmt.Errorf("invalid character %q %s at offset %d", s.data[s.pos], context, s.pos)
		}
	}
	s.pos = len(s.data)
}

// peek skips whitespace and returns the next byte, 0 at the end.
func (s *jsonScanner) peek() byte {
	for s.pos < len(s.data) {
		switch c := s.data[s.pos]; c {
		case ' ', '\t', '\n', '\r':
			s.pos++
		default:
			return c
		}
	}
	return 0
}

// literal consumes word (null, true or false) at pos.
func (s *jsonScanner) literal(word string) bool {
	if len(s.data)-s.pos >= len(word) && string(s.data[s.pos:s.pos+len(word)]) == word {
		s.pos += len(word)
		return true
	}
	s.fail("starting a malformed literal " + word)
	return false
}

// open consumes the '[' or '{' at pos and enters the container.
func (s *jsonScanner) open() {
	s.pos++
	if s.depth++; s.depth > maxNesting {
		s.pos--
		s.fail("exceeding the maximum nesting depth")
	}
}

// more is called after a container's opening bracket and after each of
// its members: it consumes the ',' before the next member and reports
// true, or consumes the closing bracket and leaves the container.
func (s *jsonScanner) more(first bool, closing byte) bool {
	c := s.peek()
	switch {
	case s.err != nil:
		return false
	case c == closing:
		s.pos++
		s.depth--
		return false
	case first:
		return true
	case c == ',':
		s.pos++
		return true
	}
	if closing == ']' {
		s.fail("after array element")
	} else {
		s.fail("after object key:value pair")
	}
	return false
}

// key reads an object key and the ':' after it.
func (s *jsonScanner) key() []byte {
	if s.peek() != '"' {
		s.fail("looking for beginning of object key string")
		return nil
	}
	k := s.str()
	if s.peek() != ':' {
		s.fail("after object key")
		return nil
	}
	s.pos++
	return k
}

// str reads the string at pos and returns its unescaped bytes: a slice
// of the input when the string holds no escape and is valid UTF-8, else
// a new buffer.
func (s *jsonScanner) str() []byte {
	d := s.data
	start := s.pos + 1
	for i := start; i < len(d); {
		switch c := d[i]; {
		case c == '"':
			s.pos = i + 1
			return d[start:i]
		case c == '\\':
			return s.unescape(start, i)
		case c < ' ':
			s.pos = i
			s.fail("in string literal")
			return nil
		case c < utf8.RuneSelf:
			i++
		default:
			r, size := utf8.DecodeRune(d[i:])
			if r == utf8.RuneError && size == 1 {
				return s.unescape(start, i)
			}
			i += size
		}
	}
	s.pos = len(d)
	s.fail("")
	return nil
}

// unescape finishes reading a string whose bytes from start on need
// decoding, which begins at i.
func (s *jsonScanner) unescape(start, i int) []byte {
	d := s.data
	b := append(make([]byte, 0, i-start+16), d[start:i]...)
	for i < len(d) {
		switch c := d[i]; {
		case c == '"':
			s.pos = i + 1
			return b
		case c == '\\':
			if i+1 >= len(d) {
				s.pos = len(d)
				s.fail("")
				return nil
			}
			switch e := d[i+1]; e {
			case '"', '\\', '/':
				b = append(b, e)
			case 'b':
				b = append(b, '\b')
			case 'f':
				b = append(b, '\f')
			case 'n':
				b = append(b, '\n')
			case 'r':
				b = append(b, '\r')
			case 't':
				b = append(b, '\t')
			case 'u':
				r := hex4(d[i+2:])
				if r < 0 {
					s.pos = i
					s.fail("starting a \\u escape without four hexadecimal digits")
					return nil
				}
				i += 6
				if utf16.IsSurrogate(r) {
					r2 := rune(-1)
					if i+1 < len(d) && d[i] == '\\' && d[i+1] == 'u' {
						r2 = hex4(d[i+2:])
					}
					if pair := utf16.DecodeRune(r, r2); pair != utf8.RuneError {
						i += 6
						r = pair
					} else {
						r = utf8.RuneError
					}
				}
				b = utf8.AppendRune(b, r)
				continue
			default:
				s.pos = i + 1
				s.fail("in string escape code")
				return nil
			}
			i += 2
		case c < ' ':
			s.pos = i
			s.fail("in string literal")
			return nil
		case c < utf8.RuneSelf:
			b = append(b, c)
			i++
		default:
			r, size := utf8.DecodeRune(d[i:])
			b = utf8.AppendRune(b, r)
			i += size
		}
	}
	s.pos = len(d)
	s.fail("")
	return nil
}

// hex4 decodes the four hex digits at the front of b, or returns -1.
func hex4(b []byte) rune {
	if len(b) < 4 {
		return -1
	}
	var r rune
	for _, c := range b[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

// number reads the number literal at pos.
func (s *jsonScanner) number() []byte {
	d, start, i := s.data, s.pos, s.pos
	digits := func() bool {
		j := i
		for i < len(d) && '0' <= d[i] && d[i] <= '9' {
			i++
		}
		return i > j
	}
	if i < len(d) && d[i] == '-' {
		i++
	}
	switch {
	case i < len(d) && d[i] == '0':
		i++
	case !digits():
		s.pos = i
		s.fail("in numeric literal")
		return nil
	}
	if i < len(d) && d[i] == '.' {
		i++
		if !digits() {
			s.pos = i
			s.fail("after decimal point in numeric literal")
			return nil
		}
	}
	if i < len(d) && (d[i] == 'e' || d[i] == 'E') {
		i++
		if i < len(d) && (d[i] == '+' || d[i] == '-') {
			i++
		}
		if !digits() {
			s.pos = i
			s.fail("in exponent of numeric literal")
			return nil
		}
	}
	s.pos = i
	return d[start:i]
}

// parseNumber converts a number literal as encoding/json does
// (strconv.ParseFloat, refusing one out of float64 range). An integer
// of at most 15 digits, the common case, is exact in a float64 and
// converts without the string.
func parseNumber(lit []byte) (float64, bool) {
	digits := lit
	if len(digits) > 0 && digits[0] == '-' {
		digits = digits[1:]
	}
	small := len(digits) <= 15
	var u uint64
	for _, c := range digits {
		if c < '0' || c > '9' {
			small = false
			break
		}
		u = u*10 + uint64(c-'0')
	}
	if !small {
		n, err := strconv.ParseFloat(string(lit), 64)
		return n, err == nil
	}
	n := float64(u)
	if len(digits) < len(lit) {
		n = -n // -0 included
	}
	return n, true
}

// skip reads one value of any shape without decoding it.
func (s *jsonScanner) skip() {
	switch c := s.peek(); {
	case c == '{':
		s.open()
		for first := true; s.more(first, '}'); first = false {
			s.key()
			s.skip()
		}
	case c == '[':
		s.open()
		for first := true; s.more(first, ']'); first = false {
			s.skip()
		}
	case c == '"':
		s.str()
	case c == 'n':
		s.literal("null")
	case c == 't':
		s.literal("true")
	case c == 'f':
		s.literal("false")
	case c == '-' || '0' <= c && c <= '9':
		s.number()
	default:
		s.fail("looking for beginning of value")
	}
}

// value reads one wire value. allowWild admits the null wildcard (query
// patterns); constants refuse it.
func (s *jsonScanner) value(allowWild bool) (datalog.Value, error) {
	c := s.peek()
	start := s.pos
	switch {
	case c == '"':
		return datalog.Sym(string(s.str())), nil
	case c == '-' || '0' <= c && c <= '9':
		lit := s.number()
		n, ok := parseNumber(lit)
		if !ok && s.err == nil {
			return datalog.Value{}, fmt.Errorf("bad value %s", lit)
		}
		return datalog.Num(n), nil
	case c == '{':
		return s.objectValue()
	case c == '[':
		s.skip()
		return datalog.Value{}, fmt.Errorf("bad value %s (sets are written {\"set\":[...]})", s.data[start:s.pos])
	case c == 't':
		s.literal("true")
		return datalog.Bool(true), nil
	case c == 'f':
		s.literal("false")
		return datalog.Bool(false), nil
	case c == 'n':
		if s.literal("null") && !allowWild {
			return datalog.Value{}, fmt.Errorf("null (wildcard) is not a constant")
		}
		return datalog.Any(), nil
	}
	s.fail("looking for beginning of value")
	return datalog.Value{}, nil
}

// valueForms maps each value object key to the word its errors use.
var valueForms = map[string]string{"str": "string", "num": "number", "set": "set", "bool": "bool"}

// errFormType marks a value object whose member has the wrong JSON type
// for its key ({"str":1}); objectValue words the error.
var errFormType = errors.New("wrong member type")

// objectValue reads a value object. Only the last occurrence of its key
// is decoded, the one a Go map would keep.
func (s *jsonScanner) objectValue() (datalog.Value, error) {
	start := s.pos
	s.open()
	var (
		form     []byte
		distinct int
		v        datalog.Value
		err      error
	)
	for first := true; s.more(first, '}'); first = false {
		k := s.key()
		switch {
		case first:
			form, distinct = k, 1
		case distinct == 1 && !bytes.Equal(k, form):
			distinct = 2
		}
		if distinct == 1 {
			v, err = s.formValue(k)
		} else {
			s.skip()
		}
	}
	if s.err != nil {
		return datalog.Value{}, nil
	}
	raw := s.data[start:s.pos]
	word, known := valueForms[string(form)]
	switch {
	case distinct != 1:
		return datalog.Value{}, fmt.Errorf("value object must have exactly one of \"str\", \"num\", \"set\", got %s", raw)
	case !known:
		return datalog.Value{}, fmt.Errorf("unknown value form %q", form)
	case err == errFormType:
		return datalog.Value{}, fmt.Errorf("bad %s value %s", word, raw)
	}
	return v, err
}

// formValue reads the member of a value object whose key is form. A null
// member reads as the zero value of its Go type: "", an empty set, false.
func (s *jsonScanner) formValue(form []byte) (datalog.Value, error) {
	c := s.peek()
	switch string(form) {
	case "str":
		switch c {
		case '"':
			return datalog.Str(string(s.str())), nil
		case 'n':
			s.literal("null")
			return datalog.Str(""), nil
		}
	case "num":
		switch {
		case c == '"' || c == 'n':
			var text []byte
			if c == '"' {
				text = s.str()
			} else {
				s.literal("null")
			}
			switch string(text) {
			case "inf":
				return datalog.Num(math.Inf(1)), nil
			case "-inf":
				return datalog.Num(math.Inf(-1)), nil
			}
			n, err := strconv.ParseFloat(string(text), 64)
			if err != nil || math.IsNaN(n) {
				return datalog.Value{}, fmt.Errorf("bad number %q", text)
			}
			return datalog.Num(n), nil
		case c == '-' || '0' <= c && c <= '9':
			if n, ok := parseNumber(s.number()); ok {
				return datalog.Num(n), nil
			}
			return datalog.Value{}, errFormType
		}
	case "set":
		switch c {
		case '[':
			return s.set()
		case 'n':
			s.literal("null")
			return datalog.SetOf(), nil
		}
	case "bool":
		switch c {
		case 't':
			s.literal("true")
			return datalog.Bool(true), nil
		case 'f':
			s.literal("false")
			return datalog.Bool(false), nil
		case 'n':
			s.literal("null")
			return datalog.Bool(false), nil
		}
	default:
		s.skip()
		return datalog.Value{}, nil
	}
	s.skip()
	return datalog.Value{}, errFormType
}

// set reads the element array of {"set":[...]}; elements are constants.
func (s *jsonScanner) set() (datalog.Value, error) {
	s.open()
	var elems []datalog.Value
	var err error
	for first := true; s.more(first, ']'); first = false {
		e, eerr := s.value(false)
		if eerr != nil && err == nil {
			err = fmt.Errorf("set element %d: %w", len(elems), eerr)
		}
		elems = append(elems, e)
	}
	if err != nil {
		return datalog.Value{}, err
	}
	return datalog.SetOf(elems...), nil
}

// decodeValue parses one wire value, surrounded by any white space.
// allowWild admits null wildcards (query patterns); asserts reject them.
func decodeValue(raw []byte, allowWild bool) (datalog.Value, error) {
	trimmed := bytes.TrimSpace(raw)
	if len(trimmed) == 0 {
		return datalog.Value{}, fmt.Errorf("empty value")
	}
	s := jsonScanner{data: trimmed}
	v, err := s.value(allowWild)
	if s.peek(); s.err != nil || s.pos != len(trimmed) {
		return datalog.Value{}, fmt.Errorf("bad value %s", trimmed)
	}
	return v, err
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

// factBatch is a decoded fact array. Arguments that do not decode as
// constants leave their fact's arity intact, and the first such error
// waits in argErr until checkFacts has checked the facts before it and
// its own predicate and arity: the order in which a batch's faults have
// always been reported.
type factBatch struct {
	facts  []datalog.Fact
	argErr error // of facts[argAt]; nil when every argument decoded
	argAt  int
}

// UnmarshalJSON decodes the "facts" member of an /v1/assert body.
// encoding/json has checked its syntax and passes it whatever its type.
func (b *factBatch) UnmarshalJSON(data []byte) (err error) {
	*b, err = decodeFacts(data)
	return err
}

// decodeFacts reads a fact array: a JSON WAL record's payload, or the facts
// of an /v1/assert body. It fails on a syntax error anywhere in data and
// on a member of the wrong JSON type; it reads null as no facts.
func decodeFacts(data []byte) (factBatch, error) {
	s := jsonScanner{data: data}
	var b factBatch
	var typeErr error
	switch s.peek() {
	case 'n':
		s.literal("null")
	case '[':
		s.open()
		for first := true; s.more(first, ']'); first = false {
			if err := s.fact(&b); err != nil && typeErr == nil {
				typeErr = err
			}
		}
	default:
		typeErr = fmt.Errorf("facts must be an array of {\"pred\":...,\"args\":[...]} objects")
		s.skip()
	}
	if s.peek(); s.err == nil && s.pos != len(data) {
		s.fail("after top-level value")
	}
	if s.err != nil {
		return factBatch{}, s.err
	}
	if typeErr != nil {
		return factBatch{}, typeErr
	}
	return b, nil
}

// fact reads one element of a fact array into b. It returns an error
// for a member of the wrong JSON type and goes on reading.
func (s *jsonScanner) fact(b *factBatch) error {
	i := len(b.facts)
	var f datalog.Fact
	var argErr, typeErr error
	switch s.peek() {
	case 'n':
		s.literal("null")
	case '{':
		s.open()
		for first := true; s.more(first, '}'); first = false {
			k := s.key()
			field := ""
			switch {
			case bytes.EqualFold(k, []byte("pred")):
				field = "pred"
			case bytes.EqualFold(k, []byte("args")):
				field = "args"
			}
			switch c := s.peek(); {
			case field == "pred" && c == '"':
				f.Pred = string(s.str())
			case field == "args" && c == '[':
				f.Args, argErr = s.factArgs()
			case field == "args" && c == 'n':
				s.literal("null")
				f.Args, argErr = nil, nil
			case field != "" && c != 'n':
				typeErr = fmt.Errorf("facts[%d].%s has the wrong JSON type", i, field)
				s.skip()
			default: // an unknown key, or a null "pred", which changes nothing
				s.skip()
			}
		}
	default:
		typeErr = fmt.Errorf("facts[%d] is not an object", i)
		s.skip()
	}
	b.facts = append(b.facts, f)
	if argErr != nil && b.argErr == nil {
		b.argErr, b.argAt = argErr, i
	}
	return typeErr
}

// factArgs reads a fact's argument array. Every argument is read; the
// first that is no constant gives the error.
func (s *jsonScanner) factArgs() ([]datalog.Value, error) {
	s.open()
	s.args = s.args[:0]
	var err error
	for first := true; s.more(first, ']'); first = false {
		v, verr := s.value(false)
		if verr != nil && err == nil {
			err = fmt.Errorf("args[%d]: %w", len(s.args), verr)
		}
		s.args = append(s.args, v)
	}
	return append([]datalog.Value(nil), s.args...), err
}
