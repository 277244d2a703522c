// Package val defines the runtime value representation shared by every
// layer of the engine: constants appearing in tuples, cost values drawn
// from lattices, and the results of aggregate functions.
//
// A single concrete type T is used rather than an interface so that values
// can be compared, hashed and stored as plain words, and so that a
// heterogeneous interpretation (one program mixing numeric, boolean and
// set-valued cost domains, as in Ross & Sagiv Figure 1) needs no type
// parameters.
package val

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Kind discriminates the variants of T.
type Kind uint8

// The value kinds. Sym is an uninterpreted constant (lowercase identifier),
// Num is a real number (the numeric cost domains of Figure 1 are all
// embedded in R ∪ {±∞}, represented by float64 with ±Inf), Bool is a truth
// value (written 0/1 in the paper), Str is a quoted string, and Set is a
// finite set of values (the powerset domains of Figure 1).
const (
	Sym Kind = iota
	Num
	Bool
	Str
	SetKind
)

// T is a runtime value: a kind and a 64-bit payload, 16 bytes with no
// pointers, so tuples of values can be stored, copied and hashed as plain
// words and the garbage collector never scans them. The payload holds the
// float bits of a Num (every NaN as one bit pattern, −0 as +0), 0 or 1
// for a Bool, the intern id of a Sym's or Str's text, and the intern id
// of a SetKind's set (intern.go). It is unexported: every value is built
// by a constructor, so equal values have equal payloads and identity is
// word equality (Same, Hash). The zero T is the empty symbol.
type T struct {
	Kind Kind
	p    uint64
}

// nanBits is the one payload every NaN is stored as.
const nanBits = 0x7ff8000000000001

// Symbol returns the symbol constant named s, interning s.
func Symbol(s string) T { return T{Kind: Sym, p: internText(s)} }

// Number returns the numeric constant n. Negative zero is stored as +0
// and every NaN as one bit pattern: the values compare (or fail to
// compare) alike, so keeping several payloads would give one number
// several identities (and one tuple several rows). Every Num value is
// built here — literals, arithmetic, and the snapshot and JSON codecs.
func Number(n float64) T {
	switch {
	case n == 0:
		return T{Kind: Num}
	case n != n:
		return T{Kind: Num, p: nanBits}
	}
	return T{Kind: Num, p: math.Float64bits(n)}
}

// Boolean returns the boolean constant b.
func Boolean(b bool) T {
	if b {
		return T{Kind: Bool, p: 1}
	}
	return T{Kind: Bool}
}

// String returns the string constant s, interning s.
func String(s string) T { return T{Kind: Str, p: internText(s)} }

// SetOf returns a set value containing the given elements (duplicates are
// removed; order is irrelevant).
func SetOf(elems ...T) T { return NewSet(elems).Value() }

// Num returns the number a Num holds (0 for other kinds).
func (v T) Num() float64 {
	if v.Kind != Num {
		return 0
	}
	return math.Float64frombits(v.p)
}

// Bool returns the truth value a Bool holds (false for other kinds).
func (v T) Bool() bool { return v.Kind == Bool && v.p != 0 }

// Text returns the text of a Sym or Str ("" for other kinds).
func (v T) Text() string {
	if v.Kind != Sym && v.Kind != Str {
		return ""
	}
	return texts.vals.at(v.p)
}

// Set returns the set a SetKind holds (the empty set for other kinds).
func (v T) Set() *Set {
	if v.Kind != SetKind {
		return sets.vals.at(0) // EmptySet
	}
	return sets.vals.at(v.p)
}

// Key returns a canonical string encoding of v, suitable for use as a map
// key. Distinct values have distinct keys, and a key never depends on an
// intern id.
func (v T) Key() string {
	return string(AppendKey(nil, v))
}

// String renders v in the concrete syntax of the rule language.
func (v T) String() string {
	if v.Kind == Sym {
		return v.Text()
	}
	var buf [32]byte
	return string(AppendString(buf[:0], v))
}

// AppendString appends the concrete syntax of v (exactly the bytes String
// returns) to dst, so that rendering many values — a program's facts,
// say — shares one buffer.
func AppendString(dst []byte, v T) []byte {
	switch v.Kind {
	case Sym:
		return append(dst, v.Text()...)
	case Num:
		// Infinities print in the concrete syntax the parser reads back
		// ("inf" / "-inf"), not strconv's "+Inf".
		n := v.Num()
		if math.IsInf(n, 1) {
			return append(dst, "inf"...)
		}
		if math.IsInf(n, -1) {
			return append(dst, "-inf"...)
		}
		return strconv.AppendFloat(dst, n, 'g', -1, 64)
	case Bool:
		if v.Bool() {
			return append(dst, '1')
		}
		return append(dst, '0')
	case Str:
		return strconv.AppendQuote(dst, v.Text())
	case SetKind:
		return append(dst, v.Set().String()...)
	}
	return append(dst, '?')
}

// Equal reports whether two values are identical: Same, except that NaN
// is not equal to itself.
func Equal(a, b T) bool {
	return a == b && (a.Kind != Num || a.p != nanBits)
}

// Same reports whether a and b have the same Key — the identity tuple
// storage deduplicates on. Constructors canonicalise every payload, so
// this is word equality. It differs from Equal only on NaN, which has one
// key but is not equal to itself.
func Same(a, b T) bool { return a == b }

// Hash returns a hash of v consistent with Same: one mix of the kind and
// payload. Intern ids differ between processes, so nothing may depend on
// a hash value beyond one run.
func Hash(v T) uint64 {
	return mix64(v.p ^ (uint64(v.Kind)+1)*0x9e3779b97f4a7c15)
}

// mix64 is the splitmix64 finalizer: a cheap full-avalanche mix.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// Compare imposes a total order on values (by kind, then by natural order
// within the kind: numbers numerically with NaN first, symbols and
// strings by their text, sets by their canonical key — never by intern
// id). It is used only for deterministic
// output ordering, not for lattice orders.
func Compare(a, b T) int {
	if a.Kind != b.Kind {
		return int(a.Kind) - int(b.Kind)
	}
	if a == b {
		return 0
	}
	switch a.Kind {
	case Sym, Str:
		return strings.Compare(a.Text(), b.Text())
	case Num:
		// NaN (one payload, so a != b rules out two) sorts first.
		an, bn := a.Num(), b.Num()
		switch {
		case an < bn || an != an:
			return -1
		case an > bn || bn != bn:
			return 1
		}
		return 0
	case Bool:
		if b.Bool() {
			return -1
		}
		return 1
	case SetKind:
		return strings.Compare(a.Set().key, b.Set().key)
	}
	return 0
}

// KeyOf returns the canonical key of a tuple of values, separating the
// component keys with an unprintable delimiter.
func KeyOf(tuple []T) string {
	var b []byte
	for i, v := range tuple {
		if i > 0 {
			b = append(b, 0)
		}
		b = AppendKey(b, v)
	}
	return string(b)
}

// AppendKey appends the canonical key encoding of v (exactly the bytes
// Key returns) to dst and returns the extended slice.
func AppendKey(dst []byte, v T) []byte {
	switch v.Kind {
	case Sym:
		dst = append(dst, 's', ':')
		return append(dst, v.Text()...)
	case Num:
		dst = append(dst, 'n', ':')
		return strconv.AppendFloat(dst, v.Num(), 'g', -1, 64)
	case Bool:
		if v.Bool() {
			return append(dst, 'b', ':', '1')
		}
		return append(dst, 'b', ':', '0')
	case Str:
		dst = append(dst, 'q', ':')
		return append(dst, v.Text()...)
	case SetKind:
		dst = append(dst, 'S', ':')
		return append(dst, v.Set().key...)
	}
	return append(dst, '?')
}

// Set is an immutable finite set of values, kept sorted by element Key.
// Sets are hash-consed: NewSet returns the one Set per distinct element
// set, so set equality is pointer equality and a SetKind value carries
// the set's intern id.
type Set struct {
	id    uint64
	elems []T
	keys  []string
	key   string // "{" + keys joined by ";" + "}"
}

// NewSet returns the set of elems, discarding duplicates; it interns the
// set on first use.
func NewSet(elems []T) *Set {
	key, sorted := canonical(elems)
	id := sets.intern(key, func(key string, id uint64) *Set {
		s := &Set{id: id, key: key, elems: make([]T, len(sorted)), keys: make([]string, len(sorted))}
		for i, p := range sorted {
			s.elems[i], s.keys[i] = p.v, p.k
		}
		return s
	})
	return sets.vals.at(id)
}

// keyed is an element paired with its Key.
type keyed struct {
	k string
	v T
}

// canonical returns the canonical key of the set of elems and its
// elements sorted by Key without duplicates.
func canonical(elems []T) (string, []keyed) {
	ps := make([]keyed, len(elems))
	for i, e := range elems {
		ps[i] = keyed{e.Key(), e}
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i].k < ps[j].k })
	ps = slices.CompactFunc(ps, func(a, b keyed) bool { return a.k == b.k })
	var b strings.Builder
	b.WriteByte('{')
	for i, p := range ps {
		if i > 0 {
			b.WriteByte(';')
		}
		b.WriteString(p.k)
	}
	b.WriteByte('}')
	return b.String(), ps
}

// EmptySet is the set with no elements; it is interned first, as id 0.
var EmptySet = NewSet(nil)

// Value returns the SetKind value holding s (∅ for a nil s).
func (s *Set) Value() T {
	if s == nil {
		return T{Kind: SetKind}
	}
	return T{Kind: SetKind, p: s.id}
}

// Len returns the cardinality of s.
func (s *Set) Len() int { return len(s.elems) }

// Elems returns the elements of s in canonical order. The caller must not
// modify the returned slice.
func (s *Set) Elems() []T { return s.elems }

// Contains reports whether v is a member of s.
func (s *Set) Contains(v T) bool {
	k := v.Key()
	i := sort.SearchStrings(s.keys, k)
	return i < len(s.keys) && s.keys[i] == k
}

// SubsetOf reports whether every element of s is in t.
func (s *Set) SubsetOf(t *Set) bool {
	if s.Len() > t.Len() {
		return false
	}
	i := 0
	for _, k := range s.keys {
		for i < len(t.keys) && t.keys[i] < k {
			i++
		}
		if i >= len(t.keys) || t.keys[i] != k {
			return false
		}
	}
	return true
}

// Union returns s ∪ t.
func (s *Set) Union(t *Set) *Set {
	return NewSet(append(append([]T{}, s.elems...), t.elems...))
}

// Intersect returns s ∩ t.
func (s *Set) Intersect(t *Set) *Set {
	var out []T
	for _, e := range s.elems {
		if t.Contains(e) {
			out = append(out, e)
		}
	}
	return NewSet(out)
}

// Equal reports whether s and t have the same elements (a nil set is
// empty).
func (s *Set) Equal(t *Set) bool { return s.Value() == t.Value() }

// String renders the set in concrete syntax.
func (s *Set) String() string {
	if s == nil {
		return "{}"
	}
	parts := make([]string, len(s.elems))
	for i, e := range s.elems {
		parts[i] = e.String()
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// ParseNumber converts the text of a numeric literal to a Num value.
func ParseNumber(text string) (T, error) {
	n, err := strconv.ParseFloat(text, 64)
	if err != nil {
		return T{}, fmt.Errorf("val: bad number %q: %v", text, err)
	}
	return Number(n), nil
}
