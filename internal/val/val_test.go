package val

import (
	"fmt"
	"hash/maphash"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestKeysDistinguishKinds(t *testing.T) {
	vals := []T{
		Symbol("1"), Number(1), Boolean(true), String("1"),
		SetOf(Number(1)), Symbol("a"), String("a"), SetOf(),
	}
	seen := map[string]T{}
	for _, v := range vals {
		if prev, dup := seen[v.Key()]; dup {
			t.Errorf("key collision between %v and %v: %q", prev, v, v.Key())
		}
		seen[v.Key()] = v
	}
}

func TestEqualAgreesWithKey(t *testing.T) {
	gen := func(r *rand.Rand) T {
		switch r.Intn(5) {
		case 0:
			return Symbol(string(rune('a' + r.Intn(3))))
		case 1:
			return Number(float64(r.Intn(4)))
		case 2:
			return Boolean(r.Intn(2) == 0)
		case 3:
			return String(string(rune('a' + r.Intn(3))))
		default:
			var elems []T
			for i := 0; i < r.Intn(3); i++ {
				elems = append(elems, Number(float64(r.Intn(3))))
			}
			return SetOf(elems...)
		}
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := gen(r), gen(r)
		if Equal(a, b) != (a.Key() == b.Key()) {
			t.Errorf("Equal(%v, %v) disagrees with key equality", a, b)
			return false
		}
		if (Compare(a, b) == 0) != Equal(a, b) {
			t.Errorf("Compare(%v, %v) == 0 disagrees with Equal", a, b)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestSetOperations(t *testing.T) {
	s := NewSet([]T{Symbol("b"), Symbol("a"), Symbol("b")})
	if s.Len() != 2 {
		t.Fatalf("duplicates must collapse: len = %d", s.Len())
	}
	if !s.Contains(Symbol("a")) || s.Contains(Symbol("c")) {
		t.Fatal("Contains is wrong")
	}
	u := s.Union(NewSet([]T{Symbol("c")}))
	if u.Len() != 3 {
		t.Fatalf("union len = %d", u.Len())
	}
	i := s.Intersect(NewSet([]T{Symbol("a"), Symbol("c")}))
	if i.Len() != 1 || !i.Contains(Symbol("a")) {
		t.Fatalf("intersect = %v", i)
	}
	if !s.SubsetOf(u) || u.SubsetOf(s) {
		t.Fatal("SubsetOf is wrong")
	}
	if !EmptySet.SubsetOf(s) {
		t.Fatal("∅ ⊆ s")
	}
	if !s.Equal(NewSet([]T{Symbol("a"), Symbol("b")})) {
		t.Fatal("Equal must be order-insensitive")
	}
}

func TestKeyOfTuples(t *testing.T) {
	a := KeyOf([]T{Symbol("x"), Number(1)})
	b := KeyOf([]T{Symbol("x"), Number(2)})
	c := KeyOf([]T{Symbol("x"), Number(1)})
	if a == b {
		t.Error("distinct tuples share a key")
	}
	if a != c {
		t.Error("equal tuples have distinct keys")
	}
	// No ambiguity across arity boundaries.
	if KeyOf([]T{Symbol("xy")}) == KeyOf([]T{Symbol("x"), Symbol("y")}) {
		t.Error("tuple key must encode arity boundaries")
	}
}

func TestStringRendering(t *testing.T) {
	cases := []struct {
		v    T
		want string
	}{
		{Symbol("abc"), "abc"},
		{Number(3.5), "3.5"},
		{Number(3), "3"},
		{Boolean(true), "1"},
		{Boolean(false), "0"},
		{String("hi"), `"hi"`},
		{SetOf(Symbol("b"), Symbol("a")), "{a, b}"},
	}
	cases = append(cases, []struct {
		v    T
		want string
	}{
		{Number(math.Inf(1)), "inf"},
		{Number(math.Inf(-1)), "-inf"},
		{String("a\"b\n"), `"a\"b\n"`},
		{SetOf(), "{}"},
	}...)
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("%#v.String() = %q, want %q", c.v, got, c.want)
		}
		if got := string(AppendString([]byte("x="), c.v)); got != "x="+c.want {
			t.Errorf("AppendString(%#v) = %q, want %q", c.v, got, "x="+c.want)
		}
	}
}

func TestParseNumber(t *testing.T) {
	v, err := ParseNumber("2.25")
	if err != nil || v.Num() != 2.25 {
		t.Fatalf("ParseNumber: %v, %v", v, err)
	}
	if _, err := ParseNumber("zzz"); err == nil {
		t.Fatal("ParseNumber must reject garbage")
	}
}

// TestAppendKeyMatchesKey pins the append-style key builder to the
// string builders byte for byte, single values and tuples alike.
func TestAppendKeyMatchesKey(t *testing.T) {
	vals := []T{
		Symbol("a"), Symbol(""), Number(0), Number(-2.5), Number(1e300),
		Boolean(true), Boolean(false), String("x\x00y"), String(""),
		SetOf(), SetOf(Number(1)), SetOf(Symbol("b"), Number(3), Boolean(true)),
		Zero(SetKind),
	}
	for _, v := range vals {
		if got, want := string(AppendKey(nil, v)), v.Key(); got != want {
			t.Errorf("AppendKey(%v) = %q, want %q", v, got, want)
		}
	}
	tuples := [][]T{
		nil,
		{Symbol("a")},
		{Symbol("a"), Number(1), Boolean(false)},
		{String("s"), SetOf(Symbol("x"), Symbol("y"))},
	}
	for _, tu := range tuples {
		var buf []byte
		for i, v := range tu {
			if i > 0 {
				buf = append(buf, 0)
			}
			buf = AppendKey(buf, v)
		}
		if got, want := string(buf), KeyOf(tu); got != want {
			t.Errorf("KeyOf(%v) = %q, want the AppendKey bytes %q", tu, want, got)
		}
	}
}

// TestNegativeZeroCanonical: Number stores -0 as +0, so the two share a
// key, a hash and a rendering, and Same and Equal agree on them; NaN is
// Same as itself (one key) though not Equal.
func TestNegativeZeroCanonical(t *testing.T) {
	negZero := math.Copysign(0, -1)
	zero, neg := 0.0, -1.5
	for _, v := range []T{Number(negZero), Number(zero * neg), Number(-zero)} {
		if math.Signbit(v.Num()) {
			t.Errorf("Number kept the sign of zero: %v", v.Num())
		}
	}
	z, nz := Number(0), Number(negZero)
	if z.Key() != nz.Key() || z.String() != "0" || nz.String() != "0" {
		t.Fatalf("keys %q / %q, strings %q / %q", z.Key(), nz.Key(), z, nz)
	}
	if !Same(z, nz) || !Equal(z, nz) || Hash(z) != Hash(nz) {
		t.Fatal("0 and -0 must be one value")
	}
	if v, err := ParseNumber("-0"); err != nil || math.Signbit(v.Num()) {
		t.Fatalf("ParseNumber(-0) = %v, %v", v, err)
	}
	// The zero Num is +0: the one value no constructor built.
	if raw := Zero(Num); !Same(raw, z) || Hash(raw) != Hash(z) {
		t.Fatal("the zero Num must be Same as 0 and hash alike")
	}
	nan := Number(math.NaN())
	if !Same(nan, Number(math.NaN())) || Equal(nan, nan) || Hash(nan) != Hash(Number(math.NaN())) {
		t.Fatal("NaN: one key, Same and hash-equal, but not Equal")
	}
}

// TestSameAndHashAgreeWithKey: Same is exactly key equality, and values
// with equal keys hash alike — the identity the relation tables
// deduplicate on without encoding keys.
func TestSameAndHashAgreeWithKey(t *testing.T) {
	vals := []T{
		Symbol("a"), Symbol("b"), String("a"), Symbol(""), String(""),
		Number(0), Number(1), Number(-2.5), Number(math.Inf(1)), Number(math.Inf(-1)),
		Boolean(true), Boolean(false),
		SetOf(), Zero(SetKind), SetOf(Number(1)), SetOf(Symbol("1")),
		SetOf(Symbol("b"), Number(3)), SetOf(Number(3), Symbol("b")),
		SetOf(SetOf(Symbol("x"))),
	}
	for _, a := range vals {
		for _, b := range vals {
			same := a.Key() == b.Key()
			if Same(a, b) != same {
				t.Errorf("Same(%v, %v) = %v, keys equal %v", a, b, !same, same)
			}
			if same && Hash(a) != Hash(b) {
				t.Errorf("Hash(%v) != Hash(%v) for equal keys", a, b)
			}
		}
	}
}

// TestValueRepresentation pins the representation contract: a value is
// one 64-bit word on every platform, 386 included, and holds no pointer,
// so tuple arenas are plain words the garbage collector never scans.
func TestValueRepresentation(t *testing.T) {
	if size, want := unsafe.Sizeof(T{}), uintptr(8); size != want {
		t.Errorf("val.T is %d bytes, want %d", size, want)
	}
	if path, ok := pointerIn(reflect.TypeOf(T{}), "T"); ok {
		t.Errorf("val.T holds a pointer at %s", path)
	}
}

// pointerIn reports the path of a field of t the garbage collector would
// scan, if any.
func pointerIn(t reflect.Type, path string) (string, bool) {
	switch t.Kind() {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return "", false
	case reflect.Array:
		return pointerIn(t.Elem(), path+"[]")
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if p, ok := pointerIn(t.Field(i).Type, path+"."+t.Field(i).Name); ok {
				return p, true
			}
		}
		return "", false
	}
	return path + " (" + t.Kind().String() + ")", true
}

// TestLookupDoesNotIntern: Lookup and LookupSet find what constructors
// interned and add nothing for what they did not.
func TestLookupDoesNotIntern(t *testing.T) {
	a := Symbol("lookup-a")
	set := SetOf(a, Number(1))
	texts, sets := Interned()
	if got, ok := Lookup(Sym, "lookup-a"); !ok || got != a {
		t.Fatalf("Lookup(lookup-a) = %v, %v", got, ok)
	}
	if got, ok := Lookup(Str, "lookup-a"); !ok || got.Kind() != Str || got.Text() != "lookup-a" {
		t.Fatalf("Lookup(Str, lookup-a) = %v, %v", got, ok)
	}
	if got, ok := LookupSet([]T{Number(1), a, a}); !ok || got != set {
		t.Fatalf("LookupSet = %v, %v; want %v", got, ok, set)
	}
	for i := 0; i < 100; i++ {
		if _, ok := Lookup(Sym, fmt.Sprintf("never-interned-%d", i)); ok {
			t.Fatal("Lookup found a name never interned")
		}
		if _, ok := LookupSet([]T{a, Number(float64(i + 2))}); ok {
			t.Fatal("LookupSet found a set never built")
		}
	}
	if t2, s2 := Interned(); t2 != texts || s2 != sets {
		t.Fatalf("lookups grew the tables: texts %d → %d, sets %d → %d", texts, t2, sets, s2)
	}
}

// TestInternCacheConcurrent interns five times as many texts as the
// cache has slots, from four goroutines in different orders, so slots
// are overwritten while others read them: every goroutine must get the
// same one id per text, that id must name its text, and the table must
// grow by exactly the number of texts (run under -race).
func TestInternCacheConcurrent(t *testing.T) {
	before, _ := Interned() // also makes the texts new on every run
	names := make([]string, 5*len(textCache))
	for i := range names {
		names[i] = fmt.Sprintf("cache-%d-%d", before, i)
	}
	const workers = 4
	ids := make([][]T, workers)
	done := make(chan struct{})
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			got := make([]T, len(names))
			for k := range names {
				// 1, 3, 7 and 9 are prime to len(names) = 2^12·5.
				i := (k*[]int{1, 3, 7, 9}[w] + w*977) % len(names)
				for r := 0; r < 2; r++ {
					v := Symbol(names[i])
					if v.Text() != names[i] || got[i] != (T{}) && got[i] != v {
						t.Errorf("Symbol(%q) = %v", names[i], v)
						return
					}
					got[i] = v
				}
			}
			ids[w] = got
		}(w)
	}
	for w := 0; w < workers; w++ {
		<-done
	}
	if t.Failed() {
		return
	}
	for w := 1; w < workers; w++ {
		if !reflect.DeepEqual(ids[w], ids[0]) {
			t.Fatalf("goroutines 0 and %d disagree on ids", w)
		}
	}
	if after, _ := Interned(); after-before != len(names) {
		t.Fatalf("table grew by %d, want %d", after-before, len(names))
	}
}

// TestTextBytes: a text read from bytes names the value its string
// names, whether the text is new or was interned before, and once
// interned it is found without an allocation — through the cache or,
// when another text holds its slot, through the table.
func TestTextBytes(t *testing.T) {
	n, _ := Interned()
	fresh := fmt.Sprintf("bytes-fresh-%d", n)
	for _, s := range []string{"", "a", "é \x00;q:", `"x"`, fresh} {
		for _, k := range []Kind{Sym, Str} {
			got := TextBytes(k, []byte(s))
			want := Symbol(s)
			if k == Str {
				want = String(s)
			}
			if got != want || got.Kind() != k || got.Text() != s {
				t.Errorf("TextBytes(%v, %q) = %v, want %v", k, s, got, want)
			}
		}
	}
	b := []byte(fresh)
	if n := testing.AllocsPerRun(100, func() { TextBytes(Sym, b) }); n != 0 {
		t.Errorf("TextBytes of an interned text: %v allocs, want 0", n)
	}
	// Evict fresh from its cache slot: the table answers, still without
	// allocating.
	slot := &textCache[maphash.Bytes(textSeed, b)%uint64(len(textCache))]
	slot.Store(0)
	if n := testing.AllocsPerRun(1, func() { slot.Store(0); TextBytes(Sym, b) }); n != 0 {
		t.Errorf("TextBytes past the cache: %v allocs, want 0", n)
	}
}
