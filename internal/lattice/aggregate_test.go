package lattice

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/val"
)

// figure1 lists the aggregates reproduced from Figure 1 of the paper, plus
// the two extras the paper analyses (average, halfsum).
func figure1() []Aggregate {
	return []Aggregate{
		Max, Min, Sum, Count, Product, And, Or, Union, Average, Halfsum,
		NewIntersection("itest_agg", testUniverse),
		NewProperty("ptest_agg", HasPathProperty(2)),
	}
}

// genMultisetPair draws multisets a ⊑_D b by generating b and then
// deriving a as a sub-multiset with (weakly) decreased elements.
func genMultisetPair(a Aggregate, r *rand.Rand, equalCard bool) (lo, hi []Elem) {
	d := a.Domain()
	n := r.Intn(6)
	if equalCard && n == 0 {
		n = 1
	}
	for i := 0; i < n; i++ {
		e := genElem(d, r)
		hi = append(hi, e)
		keep := equalCard || r.Intn(4) > 0
		if keep {
			// Decrease e with respect to ⊑_D by meeting with a random
			// element (⊓ is always a lower bound).
			lo = append(lo, d.Meet(e, genElem(d, r)))
		}
	}
	return lo, hi
}

// TestMonotoneAggregates property-checks Definition 4.1's monotonicity
// condition, I ⊑_D I' ⇒ F(I) ⊑_R F(I'), for every monotone Figure 1 row.
func TestMonotoneAggregates(t *testing.T) {
	for _, a := range figure1() {
		if !a.Monotone() {
			continue
		}
		a := a
		t.Run(a.Name(), func(t *testing.T) {
			f := func(seed int64) bool {
				r := rand.New(rand.NewSource(seed))
				lo, hi := genMultisetPair(a, r, false)
				if !MultisetLeq(a.Domain(), lo, hi) {
					t.Fatalf("generator broke the multiset order: %v vs %v", lo, hi)
				}
				flo, ok1 := a.Apply(lo)
				fhi, ok2 := a.Apply(hi)
				if !ok1 || !ok2 {
					t.Errorf("monotone aggregate %s must be total", a.Name())
					return false
				}
				if !a.Range().Leq(flo, fhi) {
					t.Errorf("%s(%v) = %v not ⊑ %s(%v) = %v", a.Name(), lo, flo, a.Name(), hi, fhi)
					return false
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestPseudoMonotoneAggregates property-checks Definition 4.1 for the
// equal-cardinality case on every aggregate (monotone ⇒ pseudo-monotone).
func TestPseudoMonotoneAggregates(t *testing.T) {
	for _, a := range figure1() {
		a := a
		if !a.PseudoMonotone() {
			t.Errorf("%s: every Figure 1 aggregate is at least pseudo-monotone", a.Name())
			continue
		}
		t.Run(a.Name(), func(t *testing.T) {
			f := func(seed int64) bool {
				r := rand.New(rand.NewSource(seed))
				lo, hi := genMultisetPair(a, r, true)
				flo, ok1 := a.Apply(lo)
				fhi, ok2 := a.Apply(hi)
				if !ok1 || !ok2 {
					t.Errorf("%s undefined on nonempty equal-cardinality multisets", a.Name())
					return false
				}
				if !a.Range().Leq(flo, fhi) {
					t.Errorf("%s(%v) = %v not ⊑ %s(%v) = %v", a.Name(), lo, flo, a.Name(), hi, fhi)
					return false
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestAndNotMonotone reproduces §4.1.1's counterexample:
// AND({1}) = 1 but AND({0,1}) = 0, so AND is not monotone on (B, ≤).
func TestAndNotMonotone(t *testing.T) {
	one := []Elem{val.Boolean(true)}
	both := []Elem{val.Boolean(false), val.Boolean(true)}
	if !MultisetLeq(BoolOr, one, both) {
		t.Fatal("{1} ⊑ {0,1} must hold in (B, ≤)")
	}
	f1, _ := And.Apply(one)
	f2, _ := And.Apply(both)
	if BoolOr.Leq(f1, f2) {
		t.Fatal("AND must violate monotonicity on this pair (the paper's counterexample)")
	}
	if And.Monotone() {
		t.Fatal("And must be classified pseudo-monotonic, not monotonic")
	}
}

// TestAverageNotMonotone checks avg({2}) = 2 > 1.5 = avg({1,2}).
func TestAverageNotMonotone(t *testing.T) {
	f1, _ := Average.Apply([]Elem{val.Number(2)})
	f2, _ := Average.Apply([]Elem{val.Number(1), val.Number(2)})
	if f1.Num() <= f2.Num() {
		t.Fatal("expected avg to shrink when a smaller element joins the multiset")
	}
	if Average.Monotone() {
		t.Fatal("Average must not be classified monotonic")
	}
}

// TestEmptyMultisetIsBottom verifies F(∅) = ⊥_R for every monotone row,
// which is forced by monotonicity since ∅ ⊑ everything.
func TestEmptyMultisetIsBottom(t *testing.T) {
	for _, a := range figure1() {
		if !a.Monotone() {
			continue
		}
		got, ok := a.Apply(nil)
		if !ok {
			t.Errorf("%s(∅) must be defined", a.Name())
			continue
		}
		if !Eq(a.Range(), got, a.Range().Bottom()) {
			t.Errorf("%s(∅) = %v, want bottom %v", a.Name(), got, a.Range().Bottom())
		}
	}
}

func TestAggregateValues(t *testing.T) {
	n := func(xs ...float64) []Elem {
		out := make([]Elem, len(xs))
		for i, x := range xs {
			out[i] = val.Number(x)
		}
		return out
	}
	if got, _ := Min.Apply(n(3, 1, 2)); got.Num() != 1 {
		t.Errorf("min = %v", got)
	}
	if got, _ := Max.Apply(n(3, 1, 2)); got.Num() != 3 {
		t.Errorf("max = %v", got)
	}
	if got, _ := Sum.Apply(n(3, 1, 2)); got.Num() != 6 {
		t.Errorf("sum = %v", got)
	}
	if got, _ := Product.Apply(n(3, 2)); got.Num() != 6 {
		t.Errorf("product = %v", got)
	}
	if got, _ := Count.Apply(n(5, 5, 5)); got.Num() != 3 {
		t.Errorf("count must respect multiplicity: %v", got)
	}
	if got, _ := Average.Apply(n(1, 2, 3)); got.Num() != 2 {
		t.Errorf("avg = %v", got)
	}
	if got, _ := Halfsum.Apply(n(1, 1)); got.Num() != 1 {
		t.Errorf("halfsum = %v", got)
	}
	if got, _ := Min.Apply(nil); !math.IsInf(got.Num(), 1) {
		t.Errorf("min(∅) = %v, want +∞", got)
	}
	if _, ok := Average.Apply(nil); ok {
		t.Error("avg(∅) must be undefined")
	}
}

func TestUnionIntersectionAggregates(t *testing.T) {
	ab := val.SetOf(val.Symbol("a"), val.Symbol("b"))
	bc := val.SetOf(val.Symbol("b"), val.Symbol("c"))
	u, _ := Union.Apply([]Elem{ab, bc})
	if u.Set().Len() != 3 {
		t.Errorf("union aggregate = %v", u)
	}
	inter := NewIntersection("itest_agg2", testUniverse)
	got, _ := inter.Apply([]Elem{ab, bc})
	if got.Set().Len() != 1 || !got.Set().Contains(val.Symbol("b")) {
		t.Errorf("intersection aggregate = %v, want {b}", got)
	}
	empty, _ := inter.Apply(nil)
	if !empty.Set().Equal(testUniverse) {
		t.Errorf("intersection(∅) must be the universe, got %v", empty)
	}
}

func TestGraphProperties(t *testing.T) {
	p4 := NewProperty("p4_test", HasPathProperty(4))
	chain := val.SetOf(Edge("a", "b"), Edge("b", "c"), Edge("c", "d"), Edge("d", "e"))
	short := val.SetOf(Edge("a", "b"), Edge("b", "c"))
	if got, _ := p4.Apply([]Elem{chain}); !got.Bool() {
		t.Error("a 4-edge chain has a path of length 4")
	}
	if got, _ := p4.Apply([]Elem{short}); got.Bool() {
		t.Error("a 2-edge chain has no path of length 4")
	}
	// A cycle realises arbitrarily long (non-simple) paths.
	cyc := val.SetOf(Edge("a", "b"), Edge("b", "a"))
	if got, _ := p4.Apply([]Elem{cyc}); !got.Bool() {
		t.Error("a 2-cycle realises paths of any length")
	}
	conn := NewProperty("conn_test", ConnectsProperty("a", "d"))
	if got, _ := conn.Apply([]Elem{short, val.SetOf(Edge("c", "d"))}); !got.Bool() {
		t.Error("union of the multiset's graphs connects a to d")
	}
	if got, _ := conn.Apply([]Elem{short}); got.Bool() {
		t.Error("a does not reach d with only two edges")
	}
}

func TestMultisetLeqMatching(t *testing.T) {
	n := func(xs ...float64) []Elem {
		out := make([]Elem, len(xs))
		for i, x := range xs {
			out[i] = val.Number(x)
		}
		return out
	}
	// Requires a genuine matching: greedy by first-fit could fail here.
	if !MultisetLeq(MaxReal, n(2, 1), n(2, 5)) {
		t.Error("{2,1} ⊑ {2,5} under ≤")
	}
	if MultisetLeq(MaxReal, n(3, 3), n(3, 2)) {
		t.Error("{3,3} ⋢ {3,2} under ≤")
	}
	if !MultisetLeq(MaxReal, nil, n(1)) {
		t.Error("∅ ⊑ anything")
	}
	if MultisetLeq(MaxReal, n(1), nil) {
		t.Error("nonempty ⋢ ∅")
	}
	// In minreal (⊑ = ≥) the direction flips.
	if !MultisetLeq(MinReal, n(5), n(3)) {
		t.Error("{5} ⊑ {3} under ≥")
	}
}

func TestAggregateRegistry(t *testing.T) {
	for _, name := range []string{"min", "max", "sum", "count", "product", "and", "or", "union", "avg", "halfsum"} {
		if !IsAggregateName(name) {
			t.Errorf("aggregate %q not registered", name)
		}
	}
	if IsAggregateName("median") {
		t.Error("median must not be registered")
	}
}

// joinAggs is the table of aggregates that are the join of their range
// (Aggregate.IsJoin): exactly min, max and or.
var joinAggs = []Aggregate{Min, Max, Or}

// TestIsJoinMarksExactlyMinMaxOr checks the IsJoin marks against the
// table and the join property on random multisets of each marked
// aggregate.
func TestIsJoinMarksExactlyMinMaxOr(t *testing.T) {
	for _, a := range figure1() {
		want := a == Min || a == Max || a == Or
		if a.IsJoin() != want {
			t.Errorf("%s.IsJoin() = %v, want %v", a.Name(), a.IsJoin(), want)
		}
	}
	for _, a := range joinAggs {
		r := rand.New(rand.NewSource(1))
		for i := 0; i < 400; i++ {
			ms := make([]Elem, r.Intn(8))
			for j := range ms {
				ms[j] = genJoinElem(a.Domain(), r)
			}
			checkJoin(t, a, ms)
		}
	}
}

// genJoinElem draws elements of a numeric or boolean lattice, with ±0,
// ±Inf and (from a small palette) many duplicates.
func genJoinElem(l Lattice, r *rand.Rand) Elem {
	return joinElem(l, byte(r.Intn(256)))
}

// joinElem decodes one byte into an element of l.
func joinElem(l Lattice, b byte) Elem {
	if l == BoolOr {
		return val.Boolean(b&1 == 1)
	}
	palette := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), 1, -1, 2.5, -2.5, 7, math.MaxFloat64, -math.MaxFloat64}
	return val.Number(palette[int(b)%len(palette)])
}

// checkJoin checks the join property of a on ms: Domain() == Range(),
// Apply(ms) is the fold of Range().Join over ms from ⊥ (the identical
// value, not just an equal one), and Apply(∅) is ⊥.
func checkJoin(t *testing.T, a Aggregate, ms []Elem) {
	t.Helper()
	l := a.Range()
	if a.Domain() != l {
		t.Fatalf("%s: domain %s differs from range %s", a.Name(), a.Domain().Name(), l.Name())
	}
	if got, ok := a.Apply(nil); !ok || !val.Same(got, l.Bottom()) {
		t.Fatalf("%s(∅) = %v, want ⊥ %v", a.Name(), got, l.Bottom())
	}
	want := l.Bottom()
	for _, e := range ms {
		want = l.Join(want, e)
	}
	if got, ok := a.Apply(ms); !ok || !val.Same(got, want) {
		t.Fatalf("%s(%v) = %v, want the join %v", a.Name(), ms, got, want)
	}
}

// FuzzJoinAggregate checks the join property on fuzzed multisets: the
// first byte picks the aggregate from joinAggs, every further byte one
// element.
func FuzzJoinAggregate(f *testing.F) {
	for i := range joinAggs {
		f.Add([]byte{byte(i)})
		f.Add([]byte{byte(i), 0, 1, 0, 1})
		f.Add([]byte{byte(i), 2, 3, 2, 4, 5, 5, 9, 10})
		f.Add([]byte{byte(i), 6, 1, 6, 0, 3, 3, 2})
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		a := joinAggs[int(data[0])%len(joinAggs)]
		ms := make([]Elem, 0, len(data)-1)
		for _, b := range data[1:] {
			ms = append(ms, joinElem(a.Domain(), b))
		}
		checkJoin(t, a, ms)
	})
}

// sliceSortedFold is the sum family's fold as it was before it sorted
// floats on the stack: a copy of the multiset sorted by sort.Slice, then
// folded. TestSortedNumFoldMatchesSortSlice holds the new fold to it.
func sliceSortedFold(init float64, f func(acc, x float64) float64, ms []Elem) Elem {
	sorted := make([]Elem, len(ms))
	copy(sorted, ms)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Num() < sorted[j].Num() })
	acc := init
	for _, e := range sorted {
		acc = f(acc, e.Num())
	}
	return val.Number(acc)
}

// TestSortedNumFoldMatchesSortSlice checks that sum, product, halfsum and
// avg give bit-identical results to the sort.Slice fold on random
// multisets of 1 to 200 elements, across the stack buffer's bound, with
// duplicates, ±Inf, −0, subnormals and magnitudes whose sums round.
func TestSortedNumFoldMatchesSortSlice(t *testing.T) {
	pool := []float64{0, math.Copysign(0, -1), 1, 1, 2, 0.1, 0.2, 0.3, 1.0 / 3, 2.5, 7, 1e16, 1e-16, 1e300, 1e308,
		math.SmallestNonzeroFloat64, 3 * math.SmallestNonzeroFloat64, 0x1p-1030, math.MaxFloat64, math.Inf(1), -1, -0.1, -1e308, math.Inf(-1)}
	folds := []struct {
		a    Aggregate
		init float64
		f    func(acc, x float64) float64
	}{
		{Sum, 0, func(a, x float64) float64 { return a + x }},
		{Product, 1, func(a, x float64) float64 { return a * x }},
		{Halfsum, 0, func(a, x float64) float64 { return a + float64(x/2) }},
	}
	r := rand.New(rand.NewSource(41))
	for n := 1; n <= 200; n++ {
		for rep := 0; rep < 5; rep++ {
			ms := make([]Elem, n)
			for i := range ms {
				x := pool[r.Intn(len(pool))]
				if rep%2 == 1 {
					x *= r.Float64() // distinct values, so rounding depends on order
				}
				ms[i] = val.Number(x)
			}
			for _, fd := range folds {
				got, _ := fd.a.Apply(ms)
				if want := sliceSortedFold(fd.init, fd.f, ms); got != want {
					t.Fatalf("%s of %v = %v, want %v", fd.a.Name(), ms, got, want)
				}
			}
			got, _ := Average.Apply(ms)
			sum := sliceSortedFold(0, folds[0].f, ms)
			if want := val.Number(sum.Num() / float64(n)); got != want {
				t.Fatalf("avg of %v = %v, want %v", ms, got, want)
			}
		}
	}
}
