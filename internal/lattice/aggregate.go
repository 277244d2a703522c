package lattice

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/val"
)

// Aggregate is an aggregate function F : M(D) → R over a domain lattice D
// and a range lattice R (Definition 2.4 and §4.1 of the paper).
//
// Monotone aggregates satisfy I ⊑_D I' ⇒ F(I) ⊑_R F(I') for all finite
// multisets; pseudo-monotone aggregates satisfy the implication only for
// multisets of equal cardinality (Definition 4.1), and are admissible in
// recursion only over default-value cost predicates (Definition 4.5).
type Aggregate interface {
	// Name is the identifier used in aggregate subgoals.
	Name() string
	// Domain is the lattice the multiset elements are drawn from.
	Domain() Lattice
	// Range is the lattice of result values.
	Range() Lattice
	// Monotone reports whether F is monotonic on ⟨D, ⊑_D, R, ⊑_R⟩.
	Monotone() bool
	// PseudoMonotone reports whether F is pseudo-monotonic (Definition
	// 4.1). Every monotone aggregate is also pseudo-monotone.
	PseudoMonotone() bool
	// Apply evaluates F on a finite multiset. ok is false when F is
	// undefined on the multiset (e.g. average of the empty multiset);
	// monotone aggregates are total, with F(∅) = ⊥_R.
	Apply(ms []Elem) (result Elem, ok bool)
	// IsJoin reports whether F is the join of its range: Domain() ==
	// Range() and F(ms) = ⊔ ms, so F(∅) = ⊥. A group's value then grows
	// by joining in the elements that change, whatever the rest of the
	// multiset holds. It holds for min, max and or.
	IsJoin() bool
}

// aggFunc is a closure-backed Aggregate.
type aggFunc struct {
	name     string
	dom, rng Lattice
	mono     bool
	pseudo   bool
	join     bool
	apply    func(ms []Elem) (Elem, bool)
}

func (a *aggFunc) Name() string                 { return a.name }
func (a *aggFunc) Domain() Lattice              { return a.dom }
func (a *aggFunc) Range() Lattice               { return a.rng }
func (a *aggFunc) Monotone() bool               { return a.mono }
func (a *aggFunc) PseudoMonotone() bool         { return a.pseudo }
func (a *aggFunc) Apply(ms []Elem) (Elem, bool) { return a.apply(ms) }
func (a *aggFunc) IsJoin() bool                 { return a.join }

// New builds an aggregate from its parts. Monotone aggregates must be
// total and satisfy apply(∅) = ⊥ of the range.
func New(name string, dom, rng Lattice, mono, pseudo bool, apply func([]Elem) (Elem, bool)) Aggregate {
	return &aggFunc{name: name, dom: dom, rng: rng, mono: mono, pseudo: pseudo || mono, apply: apply}
}

// joinAgg marks a as the join of its range (Aggregate.IsJoin).
func joinAgg(a Aggregate) Aggregate {
	a.(*aggFunc).join = true
	return a
}

func numFold(init float64, f func(acc, x float64) float64) func([]Elem) (Elem, bool) {
	return func(ms []Elem) (Elem, bool) {
		acc := init
		for _, e := range ms {
			acc = f(acc, e.Num())
		}
		return val.Number(acc), true
	}
}

// sortedNumFold folds over the multiset in ascending numeric order, so
// that rounding of non-associative float operations (sum, product) does
// not depend on enumeration order: the two fixpoint strategies then
// compute bit-identical results for identical multisets. Only the
// ascending numbers are folded, so it sorts them, not the elements, in a
// buffer on the stack for a multiset of up to 32.
func sortedNumFold(init float64, f func(acc, x float64) float64) func([]Elem) (Elem, bool) {
	return func(ms []Elem) (Elem, bool) {
		var buf [32]float64
		xs := buf[:0]
		if len(ms) > len(buf) {
			xs = make([]float64, 0, len(ms))
		}
		for _, e := range ms {
			xs = append(xs, e.Num())
		}
		slices.Sort(xs)
		acc := init
		for _, x := range xs {
			acc = f(acc, x)
		}
		return val.Number(acc), true
	}
}

// The aggregate functions of Figure 1 (plus average from Example 2.1 and
// halfsum from Example 5.1). All are registered for use in rule text.
var (
	// Max is maximum on (R ∪ {±∞}, ≤); Max(∅) = −∞ (row 1).
	Max = joinAgg(New("max", MaxReal, MaxReal, true, true,
		numFold(-Inf, func(a, x float64) float64 {
			if x > a {
				return x
			}
			return a
		})))

	// Min is minimum on (R ∪ {±∞}, ≥); Min(∅) = +∞ (row 3). Note the
	// reversed order: a larger multiset can only *shrink* the minimum,
	// which is exactly an increase with respect to ⊑ = ≥.
	Min = joinAgg(New("min", MinReal, MinReal, true, true,
		numFold(Inf, func(a, x float64) float64 {
			if x < a {
				return x
			}
			return a
		})))

	// Sum is summation on (R* ∪ {∞}, ≤); Sum(∅) = 0 (row 4).
	Sum = New("sum", SumReal, SumReal, true, true,
		sortedNumFold(0, func(a, x float64) float64 { return a + x }))

	// Count maps any multiset to its cardinality in (N ∪ {∞}, ≤) (row 8).
	// Its domain order is discrete-agnostic; we expose it over booleans as
	// in Figure 1 but Apply ignores the element values entirely.
	Count = New("count", BoolOr, CountNat, true, true,
		func(ms []Elem) (Elem, bool) { return val.Number(float64(len(ms))), true })

	// Product is multiplication on (N⁺ ∪ {∞}, ≤); Product(∅) = 1 (row 7).
	Product = New("product", ProdNat, ProdNat, true, true,
		sortedNumFold(1, func(a, x float64) float64 { return a * x }))

	// And is conjunction on (B, ≥), bottom true; And(∅) = true (row 5).
	// With respect to the usual order ≤ on truth values And is only
	// pseudo-monotonic (§4.1.1); with respect to ≥ it is monotonic. We
	// classify it as pseudo-monotonic because the circuit example
	// (Example 4.4) uses it over the (B, ≤) order of the t predicate.
	And = New("and", BoolOr, BoolOr, false, true,
		func(ms []Elem) (Elem, bool) {
			for _, e := range ms {
				if !e.Bool() {
					return val.Boolean(false), true
				}
			}
			return val.Boolean(true), true
		})

	// Or is disjunction on (B, ≤), bottom false; Or(∅) = false (row 6).
	Or = joinAgg(New("or", BoolOr, BoolOr, true, true,
		func(ms []Elem) (Elem, bool) {
			for _, e := range ms {
				if e.Bool() {
					return val.Boolean(true), true
				}
			}
			return val.Boolean(false), true
		}))

	// Union is set union on (2^S, ⊆); Union(∅) = ∅ (row 9).
	Union = New("union", SetUnion, SetUnion, true, true,
		func(ms []Elem) (Elem, bool) {
			acc := val.EmptySet
			for _, e := range ms {
				acc = acc.Union(e.Set())
			}
			return acc.Value(), true
		})

	// Average is the arithmetic mean on (R* ∪ {∞}, ≤), pseudo-monotonic
	// with respect to ≤ (§4.1.1); undefined on the empty multiset. The
	// nonnegative carrier avoids the ill-defined mean of {+∞, −∞}.
	Average = New("avg", SumReal, SumReal, false, true,
		func(ms []Elem) (Elem, bool) {
			if len(ms) == 0 {
				return Elem{}, false
			}
			total, _ := Sum.Apply(ms) // sorted, order-independent
			return val.Number(total.Num() / float64(len(ms))), true
		})

	// Halfsum returns half the sum of a multiset of nonnegative reals; it
	// is monotonic with respect to ≤ (Example 5.1) and is the paper's
	// example of a program whose fixpoint is reached only at ω. The
	// float64 conversion rounds x/2 before the add, so no architecture
	// fuses the two (scripts/fma_check.sh).
	Halfsum = New("halfsum", SumReal, SumReal, true, true,
		sortedNumFold(0, func(a, x float64) float64 { return a + float64(x/2) }))
)

// NewIntersection builds the set-intersection aggregate over a finite
// universe S: Intersection(∅) = S, monotone on (2^S, ⊇) (row 10).
func NewIntersection(name string, universe *val.Set) Aggregate {
	l := NewSetIntersect(name+"_dom", universe)
	return New(name, l, l, true, true,
		func(ms []Elem) (Elem, bool) {
			acc := universe
			for _, e := range ms {
				acc = acc.Intersect(e.Set())
			}
			return acc.Value(), true
		})
}

// NewProperty builds a monotone multigraph-property aggregate P (row 11):
// the multiset elements are edge sets, and P holds of the multigraph formed
// by their union. prop must be monotone (adding edges preserves it).
func NewProperty(name string, prop func(edges *val.Set) bool) Aggregate {
	return New(name, SetUnion, BoolOr, true, true,
		func(ms []Elem) (Elem, bool) {
			acc := val.EmptySet
			for _, e := range ms {
				acc = acc.Union(e.Set())
			}
			return val.Boolean(prop(acc)), true
		})
}

// HasPathProperty returns the monotone property "the multigraph contains a
// (not necessarily simple) directed path of length ≥ k", the paper's
// example of a monotone property P. Edge values must be built with Edge.
func HasPathProperty(k int) func(*val.Set) bool {
	return func(edges *val.Set) bool {
		adj := map[string][]string{}
		for _, e := range edges.Elems() {
			u, v, ok := splitEdge(e)
			if !ok {
				continue
			}
			adj[u] = append(adj[u], v)
		}
		// longest[u][d] memo: can we take d steps from u?
		type key struct {
			u string
			d int
		}
		memo := map[key]bool{}
		var walk func(u string, d int) bool
		walk = func(u string, d int) bool {
			if d == 0 {
				return true
			}
			kk := key{u, d}
			if r, ok := memo[kk]; ok {
				return r
			}
			memo[kk] = false // cycle guard: a cycle means unbounded length
			res := false
			for _, v := range adj[u] {
				if walk(v, d-1) {
					res = true
					break
				}
			}
			// A vertex on a directed cycle can realise any length; the
			// cycle guard above under-approximates, so detect cycles
			// explicitly: if u reaches itself, any remaining length works.
			if !res && reaches(adj, u, u) {
				res = true
			}
			memo[kk] = res
			return res
		}
		for u := range adj {
			if walk(u, k) {
				return true
			}
		}
		return false
	}
}

// ConnectsProperty returns the monotone property "there is a directed path
// from u to v in the multigraph".
func ConnectsProperty(u, v string) func(*val.Set) bool {
	return func(edges *val.Set) bool {
		adj := map[string][]string{}
		for _, e := range edges.Elems() {
			a, b, ok := splitEdge(e)
			if !ok {
				continue
			}
			adj[a] = append(adj[a], b)
		}
		return reaches(adj, u, v)
	}
}

func reaches(adj map[string][]string, from, to string) bool {
	seen := map[string]bool{}
	stack := append([]string{}, adj[from]...)
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if n == to {
			return true
		}
		if seen[n] {
			continue
		}
		seen[n] = true
		stack = append(stack, adj[n]...)
	}
	return false
}

func splitEdge(e val.T) (string, string, bool) {
	// Edges are "u->v" symbols (from Edge) or quoted strings (the form
	// writable in program text, where '->' cannot appear inside a bare
	// identifier).
	if e.Kind() != val.Sym && e.Kind() != val.Str {
		return "", "", false
	}
	t := e.Text()
	i := strings.Index(t, "->")
	if i < 0 {
		return "", "", false
	}
	return t[:i], t[i+2:], true
}

// aggByName is the registry of aggregates addressable from rule text.
var aggByName = map[string]Aggregate{
	Max.Name():     Max,
	Min.Name():     Min,
	Sum.Name():     Sum,
	Count.Name():   Count,
	Product.Name(): Product,
	And.Name():     And,
	Or.Name():      Or,
	Union.Name():   Union,
	Average.Name(): Average,
	Halfsum.Name(): Halfsum,
}

// AggregateByName looks up an aggregate function by name.
func AggregateByName(name string) (Aggregate, bool) {
	a, ok := aggByName[name]
	return a, ok
}

// RegisterAggregate adds an aggregate to the registry (used for
// instance-specific aggregates such as intersection over a universe or a
// custom monotone graph property).
func RegisterAggregate(a Aggregate) {
	if _, dup := aggByName[a.Name()]; dup {
		panic(fmt.Sprintf("lattice: duplicate aggregate %q", a.Name()))
	}
	aggByName[a.Name()] = a
}

// IsAggregateName reports whether name denotes a registered aggregate.
func IsAggregateName(name string) bool {
	_, ok := aggByName[name]
	return ok
}
