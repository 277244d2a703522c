package lattice

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/val"
)

// genElem draws a random element of l using r, covering bottoms, tops and
// interior values.
func genElem(l Lattice, r *rand.Rand) Elem {
	switch l.Name() {
	case "maxreal", "minreal":
		switch r.Intn(8) {
		case 0:
			return val.Number(math.Inf(1))
		case 1:
			return val.Number(math.Inf(-1))
		default:
			return val.Number(float64(r.Intn(41) - 20))
		}
	case "sumreal":
		if r.Intn(8) == 0 {
			return val.Number(math.Inf(1))
		}
		return val.Number(float64(r.Intn(20)))
	case "prodnat":
		if r.Intn(8) == 0 {
			return val.Number(math.Inf(1))
		}
		return val.Number(float64(1 + r.Intn(9)))
	case "countnat":
		if r.Intn(8) == 0 {
			return val.Number(math.Inf(1))
		}
		return val.Number(float64(r.Intn(10)))
	case "booland", "boolor":
		return val.Boolean(r.Intn(2) == 1)
	default: // set lattices
		syms := []string{"a", "b", "c", "d", "e"}
		var elems []val.T
		for _, s := range syms {
			if r.Intn(2) == 0 {
				elems = append(elems, val.Symbol(s))
			}
		}
		return val.SetOf(elems...)
	}
}

var testUniverse = val.NewSet([]val.T{
	val.Symbol("a"), val.Symbol("b"), val.Symbol("c"), val.Symbol("d"), val.Symbol("e"),
})

func allLattices() []Lattice {
	return []Lattice{
		MaxReal, SumReal, MinReal, BoolAnd, BoolOr, ProdNat, CountNat,
		SetUnion, // open-universe union: skip Top-dependent laws
		NewSetUnionOver("u5", testUniverse),
		NewSetIntersect("i5", testUniverse),
	}
}

func hasTop(l Lattice) bool { return l.Name() != "setunion" }

// TestLatticeLaws property-checks the complete-lattice axioms used by the
// paper's Theorem 3.1 on every Figure 1 domain.
func TestLatticeLaws(t *testing.T) {
	for _, l := range allLattices() {
		l := l
		t.Run(l.Name(), func(t *testing.T) {
			cfg := &quick.Config{MaxCount: 300}
			f := func(seed int64) bool {
				r := rand.New(rand.NewSource(seed))
				a, b, c := genElem(l, r), genElem(l, r), genElem(l, r)
				// Partial order: reflexive; antisymmetric; transitive.
				if !l.Leq(a, a) {
					t.Errorf("not reflexive at %v", a)
					return false
				}
				if l.Leq(a, b) && l.Leq(b, a) && !Eq(l, a, b) {
					t.Errorf("antisymmetry fails at %v, %v", a, b)
					return false
				}
				if l.Leq(a, b) && l.Leq(b, c) && !l.Leq(a, c) {
					t.Errorf("transitivity fails at %v, %v, %v", a, b, c)
					return false
				}
				// Join is the least upper bound; meet the greatest lower.
				j := l.Join(a, b)
				if !l.Leq(a, j) || !l.Leq(b, j) {
					t.Errorf("join %v of %v,%v is not an upper bound", j, a, b)
					return false
				}
				if l.Leq(a, c) && l.Leq(b, c) && !l.Leq(j, c) {
					t.Errorf("join %v of %v,%v is not least (ub %v)", j, a, b, c)
					return false
				}
				m := l.Meet(a, b)
				if !l.Leq(m, a) || !l.Leq(m, b) {
					t.Errorf("meet %v of %v,%v is not a lower bound", m, a, b)
					return false
				}
				if l.Leq(c, a) && l.Leq(c, b) && !l.Leq(c, m) {
					t.Errorf("meet %v of %v,%v is not greatest (lb %v)", m, a, b, c)
					return false
				}
				// Commutativity, idempotence, absorption.
				if !Eq(l, l.Join(a, b), l.Join(b, a)) || !Eq(l, l.Meet(a, b), l.Meet(b, a)) {
					t.Errorf("commutativity fails at %v, %v", a, b)
					return false
				}
				if !Eq(l, l.Join(a, a), a) || !Eq(l, l.Meet(a, a), a) {
					t.Errorf("idempotence fails at %v", a)
					return false
				}
				if !Eq(l, l.Join(a, l.Meet(a, b)), a) || !Eq(l, l.Meet(a, l.Join(a, b)), a) {
					t.Errorf("absorption fails at %v, %v", a, b)
					return false
				}
				// Bottom and top.
				if !l.Leq(l.Bottom(), a) {
					t.Errorf("bottom not least at %v", a)
					return false
				}
				if hasTop(l) && !l.Leq(a, l.Top()) {
					t.Errorf("top not greatest at %v", a)
					return false
				}
				return true
			}
			if err := quick.Check(f, cfg); err != nil {
				t.Error(err)
			}
		})
	}
}

func TestNumericBottoms(t *testing.T) {
	// Figure 1's ⊥ column: minreal has bottom +∞ (order is ≥), sumreal 0,
	// prodnat 1, countnat 0, booland true, boolor false.
	cases := []struct {
		l    Lattice
		want Elem
	}{
		{MaxReal, val.Number(math.Inf(-1))},
		{MinReal, val.Number(math.Inf(1))},
		{SumReal, val.Number(0)},
		{ProdNat, val.Number(1)},
		{CountNat, val.Number(0)},
		{BoolAnd, val.Boolean(true)},
		{BoolOr, val.Boolean(false)},
	}
	for _, c := range cases {
		if !Eq(c.l, c.l.Bottom(), c.want) {
			t.Errorf("%s: bottom = %v, want %v", c.l.Name(), c.l.Bottom(), c.want)
		}
	}
}

func TestMinJoinIsNumericMin(t *testing.T) {
	// In the (R, ≥) lattice the least upper bound of {3, 5} is 3: joining
	// path costs yields the shortest, per Example 3.1's warning.
	got := MinReal.Join(val.Number(3), val.Number(5))
	if got.Num() != 3 {
		t.Fatalf("minreal join(3,5) = %v, want 3", got)
	}
	if MinReal.Meet(val.Number(3), val.Number(5)).Num() != 5 {
		t.Fatalf("minreal meet(3,5) should be 5")
	}
	if !MinReal.Leq(val.Number(5), val.Number(3)) {
		t.Fatalf("in minreal, 5 ⊑ 3 must hold")
	}
}

func TestContains(t *testing.T) {
	if SumReal.Contains(val.Number(-1)) {
		t.Error("sumreal must reject negatives")
	}
	if ProdNat.Contains(val.Number(0)) {
		t.Error("prodnat must reject 0")
	}
	if ProdNat.Contains(val.Number(2.5)) {
		t.Error("prodnat must reject non-integers")
	}
	if !ProdNat.Contains(val.Number(math.Inf(1))) {
		t.Error("prodnat must contain ∞")
	}
	if MaxReal.Contains(val.Boolean(true)) {
		t.Error("maxreal must reject booleans")
	}
	if !BoolOr.Contains(val.Boolean(true)) {
		t.Error("boolor must contain booleans")
	}
}

func TestParse(t *testing.T) {
	if e, err := BoolOr.Parse(val.Number(1)); err != nil || !e.Bool() {
		t.Errorf("boolor parse 1 = %v, %v; want true", e, err)
	}
	if e, err := BoolAnd.Parse(val.Number(0)); err != nil || e.Bool() {
		t.Errorf("booland parse 0 = %v, %v; want false", e, err)
	}
	if _, err := BoolOr.Parse(val.Number(2)); err == nil {
		t.Error("boolor must reject 2")
	}
	if _, err := MinReal.Parse(val.Symbol("x")); err == nil {
		t.Error("minreal must reject symbols")
	}
	if _, err := SumReal.Parse(val.Number(-3)); err == nil {
		t.Error("sumreal must reject -3")
	}
}

func TestByNameRegistry(t *testing.T) {
	for _, name := range []string{"maxreal", "minreal", "sumreal", "booland", "boolor", "prodnat", "countnat", "setunion"} {
		if _, ok := ByName(name); !ok {
			t.Errorf("ByName(%q) missing", name)
		}
	}
	if _, ok := ByName("nope"); ok {
		t.Error("ByName must miss unknown names")
	}
}

func TestSetLatticeOps(t *testing.T) {
	ab := val.SetOf(val.Symbol("a"), val.Symbol("b"))
	bc := val.SetOf(val.Symbol("b"), val.Symbol("c"))
	u := SetUnion.Join(ab, bc)
	if u.Set().Len() != 3 {
		t.Fatalf("union len = %d, want 3", u.Set().Len())
	}
	m := SetUnion.Meet(ab, bc)
	if m.Set().Len() != 1 || !m.Set().Contains(val.Symbol("b")) {
		t.Fatalf("intersection = %v, want {b}", m)
	}
	li := NewSetIntersect("itest", testUniverse)
	// In (2^S, ⊇), join is ∩ and bottom is S.
	if !Eq(li, li.Bottom(), testUniverse.Value()) {
		t.Error("intersect-lattice bottom must be the universe")
	}
	if j := li.Join(ab, bc); j.Set().Len() != 1 {
		t.Errorf("intersect-lattice join = %v, want {b}", j)
	}
	if !li.Leq(ab, m) {
		t.Error("in (2^S, ⊇), {a,b} ⊑ {b}")
	}
}

func TestJoinMeetAll(t *testing.T) {
	xs := []Elem{val.Number(4), val.Number(2), val.Number(9)}
	if JoinAll(MinReal, xs).Num() != 2 {
		t.Error("JoinAll on minreal should take the numeric min")
	}
	if MeetAll(MinReal, xs).Num() != 9 {
		t.Error("MeetAll on minreal should take the numeric max")
	}
	if JoinAll(MinReal, nil).Num() != math.Inf(1) {
		t.Error("JoinAll of nothing is bottom (+∞ for minreal)")
	}
}
