// Package val defines the runtime value representation shared by every
// layer of the engine: constants appearing in tuples, cost values drawn
// from lattices, and the results of aggregate functions.
//
// A single concrete type T is used rather than an interface so that values
// can be compared, interned and stored in maps cheaply, and so that a
// heterogeneous interpretation (one program mixing numeric, boolean and
// set-valued cost domains, as in Ross & Sagiv Figure 1) needs no type
// parameters.
package val

import (
	"fmt"
	"hash/maphash"
	"math"
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

// T is a runtime value.
type T struct {
	Kind Kind
	S    string  // Sym, Str
	N    float64 // Num
	B    bool    // Bool
	Set  *Set    // SetKind
}

// Symbol returns the symbol constant named s.
func Symbol(s string) T { return T{Kind: Sym, S: s} }

// Number returns the numeric constant n. Negative zero is stored as +0:
// the two compare equal, so keeping both would give one number two keys
// (and one tuple two rows). Every Num value is built here — literals,
// arithmetic, and the snapshot and JSON codecs.
func Number(n float64) T {
	if n == 0 {
		n = 0
	}
	return T{Kind: Num, N: n}
}

// Boolean returns the boolean constant b.
func Boolean(b bool) T { return T{Kind: Bool, B: b} }

// String returns the string constant s.
func String(s string) T { return T{Kind: Str, S: s} }

// SetOf returns a set value containing the given elements (duplicates are
// removed; order is irrelevant).
func SetOf(elems ...T) T { return T{Kind: SetKind, Set: NewSet(elems)} }

// Key returns a canonical string encoding of v, suitable for use as a map
// key. Distinct values have distinct keys.
func (v T) Key() string {
	switch v.Kind {
	case Sym:
		return "s:" + v.S
	case Num:
		return "n:" + strconv.FormatFloat(v.N, 'g', -1, 64)
	case Bool:
		if v.B {
			return "b:1"
		}
		return "b:0"
	case Str:
		return "q:" + v.S
	case SetKind:
		return "S:" + v.Set.key()
	}
	return "?"
}

// String renders v in the concrete syntax of the rule language.
func (v T) String() string {
	if v.Kind == Sym {
		return v.S
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
		return append(dst, v.S...)
	case Num:
		// Infinities print in the concrete syntax the parser reads back
		// ("inf" / "-inf"), not strconv's "+Inf".
		if math.IsInf(v.N, 1) {
			return append(dst, "inf"...)
		}
		if math.IsInf(v.N, -1) {
			return append(dst, "-inf"...)
		}
		return strconv.AppendFloat(dst, v.N, 'g', -1, 64)
	case Bool:
		if v.B {
			return append(dst, '1')
		}
		return append(dst, '0')
	case Str:
		return strconv.AppendQuote(dst, v.S)
	case SetKind:
		return append(dst, v.Set.String()...)
	}
	return append(dst, '?')
}

// Equal reports whether two values are identical.
func Equal(a, b T) bool {
	if a.Kind != b.Kind {
		return false
	}
	switch a.Kind {
	case Sym, Str:
		return a.S == b.S
	case Num:
		return a.N == b.N
	case Bool:
		return a.B == b.B
	case SetKind:
		return a.Set.Equal(b.Set)
	}
	return false
}

// Same reports whether a and b have the same Key — the identity tuple
// storage deduplicates on — without encoding either. It differs from
// Equal only on NaN, which has one key but is not equal to itself.
func Same(a, b T) bool {
	if a.Kind != b.Kind {
		return false
	}
	switch a.Kind {
	case Sym, Str:
		return a.S == b.S
	case Num:
		return a.N == b.N || (a.N != a.N && b.N != b.N)
	case Bool:
		return a.B == b.B
	case SetKind:
		ak, bk := a.Set.keyList(), b.Set.keyList()
		if len(ak) != len(bk) {
			return false
		}
		for i := range ak {
			if ak[i] != bk[i] {
				return false
			}
		}
	}
	return true
}

// hashSeed keys Hash. It is drawn per process: nothing may depend on a
// hash value beyond one run.
var hashSeed = maphash.MakeSeed()

// Hash returns a hash of v consistent with Same: values with the same
// Key hash alike. It reads v's fields directly; no key is encoded.
func Hash(v T) uint64 {
	switch v.Kind {
	case Sym, Str:
		return maphash.String(hashSeed, v.S) ^ uint64(v.Kind)
	case Num:
		n := v.N
		if n == 0 {
			n = 0
		}
		b := math.Float64bits(n)
		if n != n {
			b = 0x7ff8000000000001
		}
		return mix64(b ^ 0x51ed270b2d5a1c3f)
	case Bool:
		if v.B {
			return 0x2545f4914f6cdd1d
		}
		return 0x9e3779b97f4a7c15
	case SetKind:
		h := uint64(0xc2b2ae3d27d4eb4f)
		for _, k := range v.Set.keyList() {
			h = mix64(h ^ maphash.String(hashSeed, k))
		}
		return h
	}
	return 0
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
// within the kind). It is used only for deterministic output ordering, not
// for lattice orders.
func Compare(a, b T) int {
	if a.Kind != b.Kind {
		return int(a.Kind) - int(b.Kind)
	}
	switch a.Kind {
	case Sym, Str:
		return strings.Compare(a.S, b.S)
	case Num:
		switch {
		case a.N < b.N:
			return -1
		case a.N > b.N:
			return 1
		}
		return 0
	case Bool:
		switch {
		case !a.B && b.B:
			return -1
		case a.B && !b.B:
			return 1
		}
		return 0
	case SetKind:
		return strings.Compare(a.Set.key(), b.Set.key())
	}
	return 0
}

// KeyOf returns the canonical key of a tuple of values, separating the
// component keys with an unprintable delimiter.
func KeyOf(tuple []T) string {
	var b strings.Builder
	for i, v := range tuple {
		if i > 0 {
			b.WriteByte(0)
		}
		b.WriteString(v.Key())
	}
	return b.String()
}

// AppendKey appends the canonical key encoding of v (exactly the bytes
// Key would return) to dst and returns the extended slice. It exists so
// hot paths can build map keys into a reusable buffer and look them up
// via m[string(buf)] without allocating.
func AppendKey(dst []byte, v T) []byte {
	switch v.Kind {
	case Sym:
		dst = append(dst, 's', ':')
		return append(dst, v.S...)
	case Num:
		dst = append(dst, 'n', ':')
		return strconv.AppendFloat(dst, v.N, 'g', -1, 64)
	case Bool:
		if v.B {
			return append(dst, 'b', ':', '1')
		}
		return append(dst, 'b', ':', '0')
	case Str:
		dst = append(dst, 'q', ':')
		return append(dst, v.S...)
	case SetKind:
		dst = append(dst, 'S', ':', '{')
		if v.Set != nil {
			for i, k := range v.Set.keys {
				if i > 0 {
					dst = append(dst, ';')
				}
				dst = append(dst, k...)
			}
		}
		return append(dst, '}')
	}
	return append(dst, '?')
}

// AppendKeyOf appends the canonical tuple key (exactly the bytes KeyOf
// would return) to dst and returns the extended slice.
func AppendKeyOf(dst []byte, tuple []T) []byte {
	for i, v := range tuple {
		if i > 0 {
			dst = append(dst, 0)
		}
		dst = AppendKey(dst, v)
	}
	return dst
}

// Set is an immutable finite set of values, kept sorted by Key.
type Set struct {
	elems []T
	keys  []string
}

// NewSet builds a set from elems, discarding duplicates.
func NewSet(elems []T) *Set {
	type pair struct {
		k string
		v T
	}
	seen := make(map[string]T, len(elems))
	for _, e := range elems {
		seen[e.Key()] = e
	}
	ps := make([]pair, 0, len(seen))
	for k, v := range seen {
		ps = append(ps, pair{k, v})
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i].k < ps[j].k })
	s := &Set{elems: make([]T, len(ps)), keys: make([]string, len(ps))}
	for i, p := range ps {
		s.elems[i] = p.v
		s.keys[i] = p.k
	}
	return s
}

// EmptySet is the set with no elements.
var EmptySet = NewSet(nil)

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

// Equal reports whether s and t have the same elements.
func (s *Set) Equal(t *Set) bool {
	if s == t {
		return true
	}
	if s == nil || t == nil || len(s.keys) != len(t.keys) {
		return false
	}
	for i := range s.keys {
		if s.keys[i] != t.keys[i] {
			return false
		}
	}
	return true
}

// keyList returns the sorted element keys; a nil set has none, like the
// empty set it keys as.
func (s *Set) keyList() []string {
	if s == nil {
		return nil
	}
	return s.keys
}

func (s *Set) key() string {
	if s == nil {
		return "{}"
	}
	return "{" + strings.Join(s.keys, ";") + "}"
}

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
