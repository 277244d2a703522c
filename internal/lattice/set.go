package lattice

import (
	"fmt"

	"repro/internal/val"
)

// setUnion is the powerset lattice (2^S, ⊆) with bottom ∅ (Figure 1 row 9).
// The universe S is left open: any finite set is an element, and the top is
// representable only symbolically, so Top panics if the lattice was built
// without a universe. Programs that need ⊤ should use NewSetIntersect or
// NewSetUnionOver with an explicit universe.
type setUnion struct {
	name     string
	universe *val.Set // nil when the universe is open
}

// SetUnion is (2^S, ⊆) over an open universe: bottom ∅, join ∪, meet ∩.
var SetUnion Lattice = &setUnion{name: "setunion"}

// NewSetUnionOver builds (2^S, ⊆) over the finite universe S, registered
// under the given name.
func NewSetUnionOver(name string, universe *val.Set) Lattice {
	return &setUnion{name: name, universe: universe}
}

func (s *setUnion) Name() string { return s.name }

func (s *setUnion) Bottom() Elem { return val.EmptySet.Value() }

func (s *setUnion) Top() Elem {
	if s.universe == nil {
		panic("lattice: setunion over an open universe has no representable top")
	}
	return s.universe.Value()
}

func (s *setUnion) Leq(a, b Elem) bool { return a.Set().SubsetOf(b.Set()) }

func (s *setUnion) Join(a, b Elem) Elem {
	return a.Set().Union(b.Set()).Value()
}

func (s *setUnion) Meet(a, b Elem) Elem {
	return a.Set().Intersect(b.Set()).Value()
}

func (s *setUnion) Contains(e Elem) bool {
	if e.Kind() != val.SetKind {
		return false
	}
	return s.universe == nil || e.Set().SubsetOf(s.universe)
}

func (s *setUnion) Parse(c val.T) (Elem, error) {
	if !s.Contains(c) {
		return Elem{}, fmt.Errorf("lattice %s: %s is not a set in the universe", s.name, c)
	}
	return c, nil
}

// setIntersect is the dual powerset lattice (2^S, ⊇) with bottom S and
// join ∩ (Figure 1 row 10). It requires a finite universe.
type setIntersect struct {
	name     string
	universe *val.Set
}

// NewSetIntersect builds (2^S, ⊇) over the finite universe S.
func NewSetIntersect(name string, universe *val.Set) Lattice {
	return &setIntersect{name: name, universe: universe}
}

func (s *setIntersect) Name() string { return s.name }

func (s *setIntersect) Bottom() Elem { return s.universe.Value() }

func (s *setIntersect) Top() Elem { return val.EmptySet.Value() }

func (s *setIntersect) Leq(a, b Elem) bool { return b.Set().SubsetOf(a.Set()) }

func (s *setIntersect) Join(a, b Elem) Elem {
	return a.Set().Intersect(b.Set()).Value()
}

func (s *setIntersect) Meet(a, b Elem) Elem {
	return a.Set().Union(b.Set()).Value()
}

func (s *setIntersect) Contains(e Elem) bool {
	return e.Kind() == val.SetKind && e.Set().SubsetOf(s.universe)
}

func (s *setIntersect) Parse(c val.T) (Elem, error) {
	if !s.Contains(c) {
		return Elem{}, fmt.Errorf("lattice %s: %s is not a set in the universe", s.name, c)
	}
	return c, nil
}

// Edge constructs the value representing a directed (multi)graph edge from
// u to v, for use with the edge-set domain of Figure 1 row 11.
func Edge(u, v string) val.T {
	return val.Symbol(u + "->" + v)
}
