package datalog

import (
	"sort"

	"repro/internal/relation"
	"repro/internal/val"
)

// Query-side facade: value introspection, wildcard matching and schema
// declarations. These are the read-only primitives a serving layer
// builds on — none of them mutate the model (not even lazily), so any
// number of goroutines may call them concurrently on the same Model
// while a writer computes a successor model with SolveMore and swaps an
// atomic pointer.

// ValueKind discriminates the variants of Value.
type ValueKind int

// The value kinds mirrored from the rule language, plus AnyValue for
// the Match wildcard.
const (
	SymValue ValueKind = iota
	NumValue
	BoolValue
	StrValue
	SetValue
	AnyValue
)

// Any returns the wildcard value: as a Model.Match argument it matches
// every constant in that position. It is not a constant of the rule
// language and may not appear in facts.
func Any() Value { return Value{wild: true} }

// Kind returns the variant of v.
func (v Value) Kind() ValueKind {
	if v.wild {
		return AnyValue
	}
	switch v.v.Kind() {
	case val.Num:
		return NumValue
	case val.Bool:
		return BoolValue
	case val.Str:
		return StrValue
	case val.SetKind:
		return SetValue
	}
	return SymValue
}

// Text returns the text of a Sym or Str value.
func (v Value) Text() (string, bool) {
	if !v.wild && (v.v.Kind() == val.Sym || v.v.Kind() == val.Str) {
		if v.text != "" {
			return v.text, true
		}
		return v.v.Text(), true
	}
	return "", false
}

// Elems returns the elements of a set value in canonical order.
func (v Value) Elems() ([]Value, bool) {
	if v.wild || v.v.Kind() != val.SetKind {
		return nil, false
	}
	if v.elems != nil {
		return v.canonicalElems(), true
	}
	raw := v.v.Set().Elems()
	out := make([]Value, len(raw))
	for i, e := range raw {
		out[i] = Value{v: e}
	}
	return out, true
}

// Match returns every tuple of the predicate whose non-cost arguments
// agree with args position-wise, with Any acting as a wildcard; for cost
// predicates the cost is appended last, as in Facts. len(args) must
// equal the predicate's non-cost arity or no rows match. Rows come back
// in the same deterministic sorted order as Facts. Like Facts, Match
// enumerates only the stored core of the extension: virtual default
// rows of a .default predicate are not invented for unmentioned tuples.
//
// Match filters the stored rows in insertion order and sorts only the
// matches; it builds no index, so it never mutates the model.
func (m *Model) Match(pred string, args ...Value) [][]Value {
	pattern := make([]*val.T, len(args))
	for i, a := range args {
		if a.wild {
			continue
		}
		v, ok := a.resolve(false)
		if !ok {
			return nil // a constant never interned is in no model
		}
		pattern[i] = &v
	}
	var out [][]Value
	ks, n := m.db.TupleKeys(pred, len(args))
	for _, k := range ks[:n] {
		var rows []relation.Row
		m.db.Rel(k).Each(func(row relation.Row) bool {
			if rowMatches(row, pattern) {
				rows = append(rows, row)
			}
			return true
		})
		relation.SortRows(rows)
		for _, row := range rows {
			out = append(out, rowValues(row))
		}
	}
	return out
}

// rowMatches reports whether row agrees with pattern, whose nil entries
// are wildcards.
func rowMatches(row relation.Row, pattern []*val.T) bool {
	if len(pattern) != len(row.Args) {
		return false
	}
	for i, p := range pattern {
		if p != nil && !val.Equal(row.Args[i], *p) {
			return false
		}
	}
	return true
}

// Size returns the total number of stored tuples across all predicates
// of the model.
func (m *Model) Size() int {
	n := 0
	for _, k := range m.db.Preds() {
		n += m.db.Rel(k).Len()
	}
	return n
}

// Preds returns the names of the predicates with at least one stored
// tuple, sorted.
func (m *Model) Preds() []string {
	seen := map[string]bool{}
	var out []string
	for _, k := range m.db.Preds() {
		if m.db.Rel(k).Len() == 0 || seen[k.Name()] {
			continue
		}
		seen[k.Name()] = true
		out = append(out, k.Name())
	}
	sort.Strings(out)
	return out
}

// PredDecl describes one predicate of a loaded program.
type PredDecl struct {
	// Name and Arity identify the predicate; Arity counts the cost
	// argument for cost predicates.
	Name  string
	Arity int
	// HasCost marks a cost predicate (.cost declaration); Lattice names
	// its cost lattice.
	HasCost bool
	Lattice string
	// HasDefault marks a default-value cost predicate (.default).
	HasDefault bool
}

// Predicates returns the declarations of every predicate of the
// program, sorted by name then arity.
func (p *Program) Predicates() []PredDecl {
	out := make([]PredDecl, 0, len(p.en.Schemas))
	for _, pi := range p.en.Schemas {
		d := PredDecl{
			Name:       pi.Key.Name(),
			Arity:      pi.Arity,
			HasCost:    pi.HasCost,
			HasDefault: pi.HasDefault,
		}
		if pi.HasCost && pi.L != nil {
			d.Lattice = pi.L.Name()
		}
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Arity < out[j].Arity
	})
	return out
}
