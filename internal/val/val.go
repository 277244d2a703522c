// Package val defines the runtime value representation shared by every
// layer of the engine: constants appearing in tuples, cost values drawn
// from lattices, and the results of aggregate functions.
//
// A single concrete type T is used rather than an interface so that values
// can be compared, hashed and stored as plain words, and so that a
// heterogeneous interpretation (one program mixing numeric, boolean and
// set-valued cost domains, as in Ross & Sagiv Figure 1) needs no type
// parameters.
//
// # The value contract
//
// A T is one 64-bit word with no pointers — unsafe.Sizeof(T{}) is 8 on
// every platform, 386 included — so tuples of values are stored, copied
// and hashed as plain words and the garbage collector never scans them.
// The top 16 bits of the word say which kind it holds:
//
//	Sym      0x0000 | intern id of the text (intern.go)
//	Bool     0x0001 | 0 or 1
//	Str      0x0002 | intern id of the text
//	SetKind  0x0003 | intern id of the set
//	Num      float64 bits + 4·2^48
//
// Intern ids stay below 2^47 by construction — the intern tables hold 40
// chunks starting at 2^8 entries, 2^47 in all, and panic before handing
// out a larger id — so an id never reaches a tag bit. Biasing a number's
// bits by 4·2^48 lifts every float above the four tags: the largest
// stored word, −Inf's, is 0xfff4…, and the float patterns the bias would
// wrap (negative NaNs) are never stored. The zero T is the empty symbol.
//
// The word is unexported: every value is built by a constructor, which
// stores −0 as +0 and every NaN as one word, so one value has one word.
// Identity is the word: Same is word equality, Hash mixes the word, and
// Equal differs from Same only on NaN, which is not equal to itself.
// Compare orders values by kind and then by their natural order (see
// Compare), never by intern id. Intern ids differ between processes, so
// no word, hash or WordKey reaches disk or the wire: the snapshot, WAL
// and JSON codecs write text.
package val

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
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

// T is a runtime value: one word laid out as the package doc says.
type T struct {
	w uint64
}

// The word layout (see the package doc).
const (
	tagShift = 48
	boolTag  = 1 << tagShift
	strTag   = 2 << tagShift
	setTag   = 3 << tagShift
	numBias  = 4 << tagShift
	// maxID bounds every intern id (intern.go's table.intern panics
	// before reaching it).
	maxID = 1 << 47
)

// nanWord is the one word every NaN is stored as.
const nanWord = 0x7ff8000000000001 + numBias

// tagKinds maps the tags below numBias to their kinds.
var tagKinds = [4]Kind{Sym, Bool, Str, SetKind}

// Kind returns the variant v holds.
func (v T) Kind() Kind {
	if t := v.w >> tagShift; t < 4 {
		return tagKinds[t]
	}
	return Num
}

// Zero returns the value of kind k with a zero payload: the empty symbol
// or string, 0, false or ∅. It stands in for a value whose kind is known
// before its payload is.
func Zero(k Kind) T {
	switch k {
	case Num:
		return T{numBias}
	case Bool:
		return T{boolTag}
	case Str:
		return T{strTag}
	case SetKind:
		return T{setTag}
	}
	return T{}
}

// Symbol returns the symbol constant named s, interning s.
func Symbol(s string) T { return T{internText(s)} }

// Number returns the numeric constant n. Negative zero is stored as +0
// and every NaN as one word: the values compare (or fail to compare)
// alike, so keeping several words would give one number several
// identities (and one tuple several rows). Every Num value is built
// here — literals, arithmetic, and the snapshot and JSON codecs.
func Number(n float64) T {
	switch {
	case n == 0:
		return T{numBias}
	case n != n:
		return T{nanWord}
	}
	return T{math.Float64bits(n) + numBias}
}

// Boolean returns the boolean constant b.
func Boolean(b bool) T {
	if b {
		return T{boolTag | 1}
	}
	return T{boolTag}
}

// String returns the string constant s, interning s.
func String(s string) T { return T{strTag | internText(s)} }

// TextBytes returns the symbol (k = Sym) or string (k = Str) constant
// whose text is b, interning it; b is not retained, and a text interned
// before costs no allocation.
func TextBytes(k Kind, b []byte) T {
	if k == Str {
		return T{strTag | internBytes(b)}
	}
	return T{internBytes(b)}
}

// SetOf returns a set value containing the given elements (duplicates are
// removed; order is irrelevant).
func SetOf(elems ...T) T { return NewSet(elems).Value() }

// id returns the intern id a Sym, Str or SetKind value carries.
func (v T) id() uint64 { return v.w &^ (0xffff << tagShift) }

// Num returns the number a Num holds (0 for other kinds).
func (v T) Num() float64 {
	if v.w < numBias {
		return 0
	}
	return math.Float64frombits(v.w - numBias)
}

// Bool returns the truth value a Bool holds (false for other kinds).
func (v T) Bool() bool { return v.w == boolTag|1 }

// Text returns the text of a Sym or Str ("" for other kinds).
func (v T) Text() string {
	if k := v.Kind(); k != Sym && k != Str {
		return ""
	}
	return texts.vals.at(v.id())
}

// Set returns the set a SetKind holds (the empty set for other kinds).
func (v T) Set() *Set {
	if v.Kind() != SetKind {
		return sets.vals.at(0) // EmptySet
	}
	return sets.vals.at(v.id())
}

// Key returns the display key of v: a string encoding that never
// depends on an intern id, used to order and print (a set's elements are
// kept in key order). It is not an identity: a set's key joins its
// elements' keys unescaped, so {"a;q:b"} and {"a", "b"} share one. Two
// values are one value exactly when their words are (Same).
func (v T) Key() string {
	return string(AppendKey(nil, v))
}

// String renders v in the concrete syntax of the rule language.
func (v T) String() string {
	if v.Kind() == Sym {
		return v.Text()
	}
	var buf [32]byte
	return string(AppendString(buf[:0], v))
}

// AppendString appends the concrete syntax of v (exactly the bytes String
// returns) to dst, so that rendering many values — a program's facts,
// say — shares one buffer.
func AppendString(dst []byte, v T) []byte {
	switch v.Kind() {
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
	return a == b && a.w != nanWord
}

// Same reports whether a and b are one value — the identity tuple
// storage deduplicates on: word equality. It differs from Equal only on
// NaN, which is one word but not equal to itself.
func Same(a, b T) bool { return a == b }

// Hash returns a hash of v consistent with Same: one mix of the word.
// Intern ids differ between processes, so nothing may depend on a hash
// value beyond one run.
func Hash(v T) uint64 { return mix64(v.w) }

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
// strings by their text, sets by their display key and then element by
// element — never by intern id). It is used only for deterministic
// output ordering, not for lattice orders.
func Compare(a, b T) int {
	ak, bk := a.Kind(), b.Kind()
	if ak != bk {
		return int(ak) - int(bk)
	}
	if a == b {
		return 0
	}
	switch ak {
	case Sym, Str:
		return strings.Compare(a.Text(), b.Text())
	case Num:
		// NaN (one word, so a != b rules out two) sorts first.
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
		s, t := a.Set(), b.Set()
		if c := strings.Compare(s.key, t.key); c != 0 {
			return c
		}
		// Distinct sets may share a display key ({"a;q:b"} and
		// {"a", "b"}): their elements, in display order, decide.
		for i := range min(len(s.elems), len(t.elems)) {
			if c := Compare(s.elems[i], t.elems[i]); c != 0 {
				return c
			}
		}
		return len(s.elems) - len(t.elems)
	}
	return 0
}

// KeyOf returns the display key of a tuple of values, separating the
// component keys with a NUL byte. Like Key it orders and prints; a text
// holding a NUL can give two tuples one key, so identity is WordKey's.
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
	switch v.Kind() {
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

// WordKey returns a key of a tuple of values that is an identity: the
// tuple's words, eight bytes each. Two tuples have one WordKey exactly
// when their values are Same position by position. Like a word, it means
// nothing beyond one run.
func WordKey(tuple []T) string { return string(AppendWordKey(nil, tuple)) }

// AppendWordKey appends the bytes of WordKey(tuple) to dst.
func AppendWordKey(dst []byte, tuple []T) []byte {
	for _, v := range tuple {
		dst = binary.LittleEndian.AppendUint64(dst, v.w)
	}
	return dst
}

// Set is an immutable finite set of values. Sets are hash-consed by
// their elements' words: NewSet returns the one Set per distinct element
// set, so set equality is pointer equality and a SetKind value carries
// the set's intern id. The elements are kept in display order (by Key,
// ties by Compare) for printing and encoding, and in word order for
// membership.
type Set struct {
	id    uint64
	elems []T    // display order
	words []T    // word order
	key   string // display key: "{" + the elements' keys joined by ";" + "}"
}

// NewSet returns the set of elems, discarding duplicates; it interns the
// set on first use.
func NewSet(elems []T) *Set {
	words := byWord(elems)
	id := sets.intern(string(AppendWordKey(nil, words)), func(_ string, id uint64) *Set {
		return newSet(id, words)
	})
	return sets.vals.at(id)
}

// byWord returns a copy of elems sorted by word without duplicates: the
// canonical form a set is interned by.
func byWord(elems []T) []T {
	words := slices.Clone(elems)
	slices.SortFunc(words, func(a, b T) int { return cmp.Compare(a.w, b.w) })
	return slices.Compact(words)
}

// newSet builds the set with intern id id of the distinct elements words
// (in word order).
func newSet(id uint64, words []T) *Set {
	ps := make([]keyed, len(words))
	for i, e := range words {
		ps[i] = keyed{e.Key(), e}
	}
	slices.SortFunc(ps, func(a, b keyed) int {
		if c := strings.Compare(a.k, b.k); c != 0 {
			return c
		}
		return Compare(a.v, b.v)
	})
	s := &Set{id: id, words: words, elems: make([]T, len(ps))}
	var b strings.Builder
	b.WriteByte('{')
	for i, p := range ps {
		if i > 0 {
			b.WriteByte(';')
		}
		b.WriteString(p.k)
		s.elems[i] = p.v
	}
	b.WriteByte('}')
	s.key = b.String()
	return s
}

// keyed is an element paired with its Key.
type keyed struct {
	k string
	v T
}

// EmptySet is the set with no elements; it is interned first, as id 0.
var EmptySet = NewSet(nil)

// Value returns the SetKind value holding s (∅ for a nil s).
func (s *Set) Value() T {
	if s == nil {
		return T{setTag}
	}
	return T{setTag | s.id}
}

// Len returns the cardinality of s.
func (s *Set) Len() int { return len(s.elems) }

// Elems returns the elements of s in display order. The caller must not
// modify the returned slice.
func (s *Set) Elems() []T { return s.elems }

// Contains reports whether v is a member of s.
func (s *Set) Contains(v T) bool {
	_, ok := slices.BinarySearchFunc(s.words, v, func(e, v T) int { return cmp.Compare(e.w, v.w) })
	return ok
}

// SubsetOf reports whether every element of s is in t.
func (s *Set) SubsetOf(t *Set) bool {
	if s.Len() > t.Len() {
		return false
	}
	i := 0
	for _, e := range s.words {
		for i < len(t.words) && t.words[i].w < e.w {
			i++
		}
		if i >= len(t.words) || t.words[i] != e {
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
