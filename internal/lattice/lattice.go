// Package lattice implements the complete lattices of cost values and the
// monotonic / pseudo-monotonic aggregate functions of Ross & Sagiv,
// "Monotonic Aggregation in Deductive Databases" (PODS 1992), Figure 1.
//
// A cost domain is a complete lattice (D, ⊑) (Definition 2.1). The minimal
// model semantics of the paper lifts ⊑ pointwise to interpretations
// (Theorem 3.1); this package supplies the element-level operations.
//
// Beware the shortest-path convention from the paper's Example 3.1: for
// the "min" domains, ⊑ is ≥ on the underlying numbers, so Bottom is +∞ and
// Join (least upper bound) is numeric min. Minimal models therefore carry
// the *smallest* numeric path costs, exactly as the paper intends.
package lattice

import (
	"fmt"
	"math"

	"repro/internal/val"
)

// Elem is a lattice element; its concrete representation (val.Num,
// val.Bool, val.SetKind) depends on the lattice.
type Elem = val.T

// Lattice is a complete lattice of cost values.
type Lattice interface {
	// Name is the identifier used in .cost declarations.
	Name() string
	// Bottom is the least element with respect to ⊑ (the default value
	// required of default-value cost predicates, §2.3.2).
	Bottom() Elem
	// Top is the greatest element with respect to ⊑.
	Top() Elem
	// Leq reports a ⊑ b.
	Leq(a, b Elem) bool
	// Join returns the least upper bound a ⊔ b.
	Join(a, b Elem) Elem
	// Meet returns the greatest lower bound a ⊓ b.
	Meet(a, b Elem) Elem
	// Contains reports whether e is a well-formed element of the domain.
	Contains(e Elem) bool
	// Parse converts a constant from program text into an element.
	Parse(c val.T) (Elem, error)
}

// Eq reports whether a and b are the same element of l (i.e. a ⊑ b ⊑ a).
func Eq(l Lattice, a, b Elem) bool { return l.Leq(a, b) && l.Leq(b, a) }

// numeric is a complete lattice embedded in R ∪ {±∞}.
//
// ascending=true means ⊑ is ≤; ascending=false means ⊑ is ≥ (the "min"
// lattices, rows 3 of Figure 1). lo/hi bound the underlying numeric range
// (e.g. nonnegative reals for the sum domain, row 4).
type numeric struct {
	name      string
	ascending bool
	lo, hi    float64 // numeric bounds of the carrier (inclusive)
	integral  bool    // restrict to whole numbers (N domains)
}

func (n *numeric) Name() string { return n.name }

func (n *numeric) Bottom() Elem {
	if n.ascending {
		return val.Number(n.lo)
	}
	return val.Number(n.hi)
}

func (n *numeric) Top() Elem {
	if n.ascending {
		return val.Number(n.hi)
	}
	return val.Number(n.lo)
}

func (n *numeric) Leq(a, b Elem) bool {
	if n.ascending {
		return a.Num() <= b.Num()
	}
	return a.Num() >= b.Num()
}

func (n *numeric) Join(a, b Elem) Elem {
	if n.Leq(a, b) {
		return b
	}
	return a
}

func (n *numeric) Meet(a, b Elem) Elem {
	if n.Leq(a, b) {
		return a
	}
	return b
}

func (n *numeric) Contains(e Elem) bool {
	if e.Kind() != val.Num {
		return false
	}
	x := e.Num()
	if math.IsNaN(x) || x < n.lo || x > n.hi {
		return false
	}
	if n.integral && !math.IsInf(x, 0) && x != math.Trunc(x) {
		return false
	}
	return true
}

func (n *numeric) Parse(c val.T) (Elem, error) {
	if c.Kind() != val.Num {
		return Elem{}, fmt.Errorf("lattice %s: %s is not numeric", n.name, c)
	}
	if !n.Contains(c) {
		return Elem{}, fmt.Errorf("lattice %s: %s outside domain", n.name, c)
	}
	return c, nil
}

// boolean is the two-element lattice B. trueIsTop=true gives the order
// 0 ⊑ 1 (row 6 of Figure 1, the OR domain); trueIsTop=false gives 1 ⊑ 0
// (row 5, the AND domain, whose bottom is true).
type boolean struct {
	name      string
	trueIsTop bool
}

func (b *boolean) Name() string { return b.name }

func (b *boolean) Bottom() Elem { return val.Boolean(!b.trueIsTop) }

func (b *boolean) Top() Elem { return val.Boolean(b.trueIsTop) }

func (b *boolean) Leq(x, y Elem) bool {
	if x.Bool() == y.Bool() {
		return true
	}
	return y.Bool() == b.trueIsTop
}

func (b *boolean) Join(x, y Elem) Elem {
	if x.Bool() == b.trueIsTop {
		return x
	}
	return y
}

func (b *boolean) Meet(x, y Elem) Elem {
	if x.Bool() == b.trueIsTop {
		return y
	}
	return x
}

func (b *boolean) Contains(e Elem) bool { return e.Kind() == val.Bool }

func (b *boolean) Parse(c val.T) (Elem, error) {
	switch {
	case c.Kind() == val.Bool:
		return c, nil
	case c.Kind() == val.Num && c.Num() == 0:
		return val.Boolean(false), nil
	case c.Kind() == val.Num && c.Num() == 1:
		return val.Boolean(true), nil
	}
	return Elem{}, fmt.Errorf("lattice %s: %s is not boolean", b.name, c)
}

// Inf is the numeric representation of +∞.
var Inf = math.Inf(1)

// The numeric and boolean lattices of Figure 1. Each value is a distinct
// named lattice usable in .cost declarations.
var (
	// MaxReal is (R ∪ {±∞}, ≤): bottom −∞, join = numeric max (row 1).
	MaxReal Lattice = &numeric{name: "maxreal", ascending: true, lo: -Inf, hi: Inf}
	// SumReal is (R* ∪ {∞}, ≤): nonnegative reals, bottom 0 (rows 2, 4).
	SumReal Lattice = &numeric{name: "sumreal", ascending: true, lo: 0, hi: Inf}
	// MinReal is (R ∪ {±∞}, ≥): bottom +∞, join = numeric min (row 3).
	MinReal Lattice = &numeric{name: "minreal", ascending: false, lo: -Inf, hi: Inf}
	// BoolAnd is (B, ≥): bottom true, join = ∧ (row 5).
	BoolAnd Lattice = &boolean{name: "booland", trueIsTop: false}
	// BoolOr is (B, ≤): bottom false, join = ∨ (row 6).
	BoolOr Lattice = &boolean{name: "boolor", trueIsTop: true}
	// ProdNat is (N⁺ ∪ {∞}, ≤): positive integers, bottom 1 (row 7).
	ProdNat Lattice = &numeric{name: "prodnat", ascending: true, lo: 1, hi: Inf, integral: true}
	// CountNat is (N ∪ {∞}, ≤): nonnegative integers, bottom 0 (row 8 range).
	CountNat Lattice = &numeric{name: "countnat", ascending: true, lo: 0, hi: Inf, integral: true}
)

// byName is the registry of lattices addressable from .cost declarations.
var byName = map[string]Lattice{
	MaxReal.Name():  MaxReal,
	SumReal.Name():  SumReal,
	MinReal.Name():  MinReal,
	BoolAnd.Name():  BoolAnd,
	BoolOr.Name():   BoolOr,
	ProdNat.Name():  ProdNat,
	CountNat.Name(): CountNat,
	"setunion":      SetUnion,
}

// ByName looks up a lattice by declaration name.
func ByName(name string) (Lattice, bool) {
	l, ok := byName[name]
	return l, ok
}

// Register adds a lattice to the declaration registry (used for
// instance-specific lattices such as set-intersection over a declared
// universe). Registering a duplicate name is a programming error.
func Register(l Lattice) {
	if _, dup := byName[l.Name()]; dup {
		panic(fmt.Sprintf("lattice: duplicate registration of %q", l.Name()))
	}
	byName[l.Name()] = l
}

// Names returns the names of all registered lattices (unordered).
func Names() []string {
	out := make([]string, 0, len(byName))
	for k := range byName {
		out = append(out, k)
	}
	return out
}
