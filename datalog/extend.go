package datalog

import (
	"fmt"

	"repro/internal/lattice"
	"repro/internal/val"
)

// The extension points below expose Figure 1's parameterized rows — the
// set-intersection lattice over a declared universe (row 10) and
// monotone multigraph properties (row 11) — plus arbitrary user-defined
// monotone aggregates. Registration is global (the rule language resolves
// names at Load time) and must happen before Load; duplicate names panic.

// RegisterSetUniverse registers a set lattice named name over the given
// finite universe, ordered by ⊆ (bottom {}), usable in .cost
// declarations.
func RegisterSetUniverse(name string, universe ...Value) {
	lattice.Register(lattice.NewSetUnionOver(name, toSet(universe)))
}

// RegisterIntersection registers the set-intersection aggregate of
// Figure 1 row 10 over the given finite universe: monotone on (2^S, ⊇),
// with Intersection(∅) = S. Its domain lattice is registered as
// "<name>_dom" for .cost declarations.
func RegisterIntersection(name string, universe ...Value) {
	a := lattice.NewIntersection(name, toSet(universe))
	lattice.Register(a.Domain())
	lattice.RegisterAggregate(a)
}

// Edge builds the canonical edge value "u->v" used by graph-property
// aggregates. In rule text, write edges as strings: {"u->v"}.
func Edge(u, v string) Value { return Sym(u + "->" + v) }

// RegisterGraphProperty registers a Figure 1 row 11 aggregate: the
// multiset elements are edge sets, and the aggregate returns whether prop
// holds of the union multigraph. prop MUST be monotone — adding edges
// must never turn it false — or the minimal-model guarantees are void;
// the engine cannot check this for you.
func RegisterGraphProperty(name string, prop func(edges []Value) bool) {
	lattice.RegisterAggregate(lattice.NewProperty(name, func(s *val.Set) bool {
		elems := s.Elems()
		out := make([]Value, len(elems))
		for i, e := range elems {
			out[i] = Value{v: e}
		}
		return prop(out)
	}))
}

// RegisterConnectsProperty registers the prebuilt monotone property
// "the union multigraph has a directed path from u to v".
func RegisterConnectsProperty(name, u, v string) {
	lattice.RegisterAggregate(lattice.NewProperty(name, lattice.ConnectsProperty(u, v)))
}

// RegisterPathLengthProperty registers the prebuilt monotone property
// "the union multigraph contains a directed path of length ≥ k" (the
// paper's example of a monotone property P).
func RegisterPathLengthProperty(name string, k int) {
	lattice.RegisterAggregate(lattice.NewProperty(name, lattice.HasPathProperty(k)))
}

// EdgeEnds splits an edge value built by Edge (or written as a "u->v"
// string) back into its endpoints.
func EdgeEnds(e Value) (u, v string, ok bool) {
	s, ok := e.Text()
	if !ok {
		return "", "", false
	}
	for i := 0; i+1 < len(s); i++ {
		if s[i] == '-' && s[i+1] == '>' {
			return s[:i], s[i+2:], true
		}
	}
	return "", "", false
}

func toSet(vs []Value) *val.Set {
	raw := make([]val.T, len(vs))
	for i, v := range vs {
		raw[i], _ = v.resolve(true)
	}
	return val.NewSet(raw)
}

// MustLoad is Load that panics on error — for package-level program
// variables in applications and examples.
func MustLoad(src string, opts Options) *Program {
	p, err := Load(src, opts)
	if err != nil {
		panic(fmt.Sprintf("datalog: %v", err))
	}
	return p
}
