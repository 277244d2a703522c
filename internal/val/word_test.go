package val

import (
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestSetIdentityIsWords: a set is interned by its elements' words, not
// by its display key, which joins the element keys with an unescaped
// ";". {"a", "b"} and {"a;q:b"} share a display key but are two sets,
// whichever is built first, at the top level and nested.
func TestSetIdentityIsWords(t *testing.T) {
	check := func(name string, two, one T, nTwo, nOne int) {
		t.Helper()
		if two == one || Equal(two, one) || Compare(two, one) == 0 {
			t.Fatalf("%s: %v and %v are one value", name, two, one)
		}
		if c1, c2 := Compare(two, one), Compare(one, two); c1 != -c2 && (c1 < 0) == (c2 < 0) {
			t.Fatalf("%s: Compare is not antisymmetric: %d, %d", name, c1, c2)
		}
		if two.Set().Len() != nTwo || one.Set().Len() != nOne {
			t.Fatalf("%s: lengths %d, %d; want %d, %d", name, two.Set().Len(), one.Set().Len(), nTwo, nOne)
		}
		if two.Set().Equal(one.Set()) || two.Set().SubsetOf(one.Set()) || one.Set().SubsetOf(two.Set()) {
			t.Fatalf("%s: Set.Equal or SubsetOf conflates %v and %v", name, two, one)
		}
	}
	// Top level, both construction orders (fresh texts for each).
	two := SetOf(String("a1"), String("b1"))
	one := SetOf(String("a1;q:b1"))
	check("two first", two, one, 2, 1)
	one = SetOf(String("a2;q:b2"))
	two = SetOf(String("a2"), String("b2"))
	check("one first", two, one, 2, 1)
	if got := one.String(); got != `{"a2;q:b2"}` {
		t.Fatalf("one-element set prints %s", got)
	}
	if got := two.String(); got != `{"a2", "b2"}` {
		t.Fatalf("two-element set prints %s", got)
	}
	if !two.Set().Contains(String("a2")) || two.Set().Contains(String("a2;q:b2")) || one.Set().Contains(String("a2")) {
		t.Fatal("Contains decides on display keys")
	}
	// Nested: the inner sets collide on their display key, so the outer
	// ones do too.
	inner2, inner1 := SetOf(String("a3"), String("b3")), SetOf(String("a3;q:b3"))
	check("nested", SetOf(inner2), SetOf(inner1), 1, 1)
	both := SetOf(inner1, inner2, inner1)
	if both.Set().Len() != 2 {
		t.Fatalf("dedup by display key: %v has %d elements", both, both.Set().Len())
	}
	if again := SetOf(inner2, inner1); again != both {
		t.Fatalf("element order changed the set: %v vs %v", again, both)
	}
	if got, ok := LookupSet([]T{inner2}); !ok || got != SetOf(inner2) {
		t.Fatalf("LookupSet(%v) = %v, %v", inner2, got, ok)
	}
}

// ref is the two-word reference of a value: its kind and its payload
// (canonical float bits, 0 or 1, or a text's intern id), and for a set
// its distinct elements, sorted by refCompare.
type ref struct {
	k     Kind
	p     uint64
	elems []ref
}

func refText(k Kind, s string) ref {
	id, ok := texts.lookup(s)
	if !ok {
		panic("text not interned: " + strconv.Quote(s))
	}
	return ref{k: k, p: id}
}

func refNum(n float64) ref {
	switch {
	case n == 0:
		return ref{k: Num}
	case n != n:
		return ref{k: Num, p: 0x7ff8000000000001}
	}
	return ref{k: Num, p: math.Float64bits(n)}
}

func refSet(elems ...ref) ref {
	es := slices.Clone(elems)
	slices.SortFunc(es, refCompare)
	es = slices.CompactFunc(es, func(a, b ref) bool { return refCompare(a, b) == 0 })
	return ref{k: SetKind, elems: es}
}

// refKey is the display key of r (T.Key).
func refKey(r ref) string {
	switch r.k {
	case Sym:
		return "s:" + texts.vals.at(r.p)
	case Str:
		return "q:" + texts.vals.at(r.p)
	case Num:
		return "n:" + strconv.FormatFloat(math.Float64frombits(r.p), 'g', -1, 64)
	case Bool:
		return "b:" + strconv.FormatUint(r.p, 10)
	}
	keys := make([]string, len(r.elems))
	for i, e := range refDisplay(r) {
		keys[i] = refKey(e)
	}
	return "S:{" + strings.Join(keys, ";") + "}"
}

// refDisplay returns a set's elements in display order: by key, ties by
// refCompare.
func refDisplay(r ref) []ref {
	es := slices.Clone(r.elems)
	slices.SortFunc(es, func(a, b ref) int {
		if c := strings.Compare(refKey(a), refKey(b)); c != 0 {
			return c
		}
		return refCompare(a, b)
	})
	return es
}

// refCompare is the order Compare must impose, on references.
func refCompare(a, b ref) int {
	if a.k != b.k {
		return int(a.k) - int(b.k)
	}
	switch a.k {
	case Sym, Str:
		return strings.Compare(texts.vals.at(a.p), texts.vals.at(b.p))
	case Num:
		an, bn := math.Float64frombits(a.p), math.Float64frombits(b.p)
		switch {
		case an != an && bn != bn:
			return 0
		case an != an || an < bn:
			return -1
		case bn != bn || an > bn:
			return 1
		}
		return 0
	case Bool:
		return int(a.p) - int(b.p)
	}
	if c := strings.Compare(refKey(a), refKey(b)); c != 0 {
		return c
	}
	ae, be := refDisplay(a), refDisplay(b)
	for i := range min(len(ae), len(be)) {
		if c := refCompare(ae[i], be[i]); c != 0 {
			return c
		}
	}
	return len(ae) - len(be)
}

// buildWord makes a value and its reference from a fuzz input: kinds 4
// and 5 are a flat and a nested set.
func buildWord(kind uint8, bits uint64, s string) (T, ref) {
	n := math.Float64frombits(bits)
	switch kind % 6 {
	case 0:
		v := Symbol(s)
		return v, refText(Sym, s)
	case 1:
		return Number(n), refNum(n)
	case 2:
		return Boolean(bits&1 == 1), ref{k: Bool, p: bits & 1}
	case 3:
		v := String(s)
		return v, refText(Str, s)
	case 4:
		v := SetOf(String(s), Number(n), Symbol(s))
		return v, refSet(refText(Str, s), refNum(n), refText(Sym, s))
	}
	v := SetOf(SetOf(String(s)), Boolean(bits&1 == 1), SetOf(Number(n), String(s)))
	return v, refSet(refSet(refText(Str, s)), ref{k: Bool, p: bits & 1}, refSet(refNum(n), refText(Str, s)))
}

// checkRoundTrip checks that v reads back as what its reference holds.
func checkRoundTrip(t *testing.T, v T, r ref, bits uint64, s string) {
	t.Helper()
	if v.Kind() != r.k {
		t.Fatalf("Kind() = %d, want %d", v.Kind(), r.k)
	}
	switch r.k {
	case Sym, Str:
		if v.Text() != s {
			t.Fatalf("Text() = %q, want %q", v.Text(), s)
		}
	case Num:
		if got := math.Float64bits(v.Num()); got != r.p {
			t.Fatalf("Num() bits = %#x, want %#x", got, r.p)
		}
	case Bool:
		if v.Bool() != (r.p == 1) {
			t.Fatalf("Bool() = %v, want %v", v.Bool(), r.p == 1)
		}
	case SetKind:
		set := v.Set()
		if set.Value() != v || set.Len() != len(r.elems) {
			t.Fatalf("Set() = %v (len %d), want %d elements", set, set.Len(), len(r.elems))
		}
		for i, e := range set.Elems() {
			if !set.Contains(e) {
				t.Fatalf("%v does not contain its element %v", v, e)
			}
			checkRoundTrip(t, e, refDisplay(r)[i], bits, s)
		}
	}
	if r.k != Num && v.Num() != 0 || r.k != Bool && v.Bool() || r.k != Sym && r.k != Str && v.Text() != "" {
		t.Fatalf("%v answers for a kind it is not", v)
	}
}

// FuzzValueWord checks the one-word encoding against the two-word
// reference: every accessor round-trips, Same is reference equality,
// Same values hash alike, Equal is Same except on NaN, and Compare is
// the reference order.
func FuzzValueWord(f *testing.F) {
	nan := math.Float64bits(math.NaN())
	nums := []uint64{
		0, 1 << 63, nan, nan | 1<<63, 0xfff8000000000000, 0xffffffffffffffff, 0x7ff0000000000001,
		math.Float64bits(math.Inf(1)), math.Float64bits(math.Inf(-1)),
		1, 0x000fffffffffffff, 1<<63 | 1,
		math.Float64bits(math.MaxFloat64), math.Float64bits(-math.MaxFloat64),
		0x0010000000000000, math.Float64bits(-0x1p-1022), math.Float64bits(2.5),
	}
	strs := []string{"", "a", "\x00", "a\x00q:b", ";", "a;q:b", "q:"}
	for i, b := range nums {
		s := strs[i%len(strs)]
		for k := uint8(0); k < 6; k++ {
			f.Add(k, b, s, (k+uint8(i))%6, nums[(i+1)%len(nums)], strs[(i+int(k))%len(strs)])
		}
	}
	f.Fuzz(func(t *testing.T, k1 uint8, b1 uint64, s1 string, k2 uint8, b2 uint64, s2 string) {
		a, ra := buildWord(k1, b1, s1)
		b, rb := buildWord(k2, b2, s2)
		checkRoundTrip(t, a, ra, b1, s1)
		checkRoundTrip(t, b, rb, b2, s2)
		same := refCompare(ra, rb) == 0
		if Same(a, b) != same {
			t.Fatalf("Same(%v, %v) = %v, reference equality %v", a, b, !same, same)
		}
		if same && Hash(a) != Hash(b) {
			t.Fatalf("Same values %v, %v hash apart", a, b)
		}
		nan := ra.k == Num && ra.p == 0x7ff8000000000001
		if Equal(a, b) != (same && !nan) {
			t.Fatalf("Equal(%v, %v) = %v", a, b, Equal(a, b))
		}
		if got, want := Compare(a, b), refCompare(ra, rb); (got < 0) != (want < 0) || (got > 0) != (want > 0) {
			t.Fatalf("Compare(%v, %v) = %d, reference %d", a, b, got, want)
		}
		if got, want := Compare(b, a), refCompare(rb, ra); (got < 0) != (want < 0) || (got > 0) != (want > 0) {
			t.Fatalf("Compare(%v, %v) = %d, reference %d", b, a, got, want)
		}
	})
}
