// Package wfs implements the Kemp–Stuckey-style well-founded semantics
// with aggregates (§5.3 of Ross & Sagiv, PODS 1992) as a comparator for
// the paper's monotonic minimal-model semantics, plus the classic
// alternating-fixpoint well-founded semantics for normal programs (used to
// evaluate the Ganguly–Greco–Zaniolo rewriting of §5.4).
//
// Unlike the core engine, atoms here are plain ground tuples: a cost
// argument is ordinary data, with no functional dependency — that is how
// Kemp & Stuckey (and the GGZ rewriting) treat programs, and it is what
// makes path relations on cyclic graphs infinite for them (§5.3-5.4);
// MaxAtoms bounds that divergence.
//
// The defining feature reproduced from Kemp & Stuckey is that an
// aggregate subgoal is satisfied only when every instance of the
// aggregated group is fully *defined* (known true or known false). On
// cyclic inputs groups never complete, so the well-founded model leaves
// the aggregate's consumers undefined — exactly the behaviour §5.3 calls
// "uninteresting" and the monotonic semantics improves on.
//
// For the optimistic (possibly-true) side of the alternating fixpoint,
// aggregate results are drawn from an achievable-value set: exact for min
// and max (every element below/above the definite extremum), and the
// two extremes {F(definite tuples), F(possible tuples)} for other
// aggregates — an under-approximation of possible truth that is exact for
// the threshold-style uses in the paper's examples (documented trade-off;
// see DESIGN.md §4).
package wfs

import (
	"maps"
	"slices"
	"sort"
	"strings"

	"repro/internal/ast"
	"repro/internal/relation"
	"repro/internal/val"
)

// Store is a set of ground atoms (all arguments data, including costs).
// An atom is identified by its arguments' words (val.WordKey) and
// enumerated in the order of their display key (val.KeyOf).
type Store struct {
	m     map[ast.PredKey]map[string]atom
	count int
}

// atom is a stored tuple with its display key.
type atom struct {
	key  string
	args []val.T
}

// NewStore returns an empty atom set.
func NewStore() *Store {
	return &Store{m: map[ast.PredKey]map[string]atom{}}
}

// Add inserts a ground atom, reporting whether it was new.
func (s *Store) Add(k ast.PredKey, args []val.T) bool {
	t := s.m[k]
	if t == nil {
		t = map[string]atom{}
		s.m[k] = t
	}
	id := val.WordKey(args)
	if _, dup := t[id]; dup {
		return false
	}
	t[id] = atom{val.KeyOf(args), append([]val.T{}, args...)}
	s.count++
	return true
}

// Has reports membership of a ground atom.
func (s *Store) Has(k ast.PredKey, args []val.T) bool {
	t := s.m[k]
	if t == nil {
		return false
	}
	var buf [64]byte
	_, ok := t[string(val.AppendWordKey(buf[:0], args))]
	return ok
}

// Len returns the number of atoms.
func (s *Store) Len() int { return s.count }

// displayOrder orders tuples a and b, whose display keys (val.KeyOf)
// are ak and bk, by display key, and tuples that share one — a text
// holding a NUL byte can make two — by val.Compare.
func displayOrder(ak string, a []val.T, bk string, b []val.T) int {
	if c := strings.Compare(ak, bk); c != 0 {
		return c
	}
	return relation.CompareArgs(a, b)
}

// Each iterates the atoms of predicate k in deterministic order
// (displayOrder).
func (s *Store) Each(k ast.PredKey, f func(args []val.T) bool) {
	t := s.m[k]
	if t == nil {
		return
	}
	atoms := make([]atom, 0, len(t))
	for _, a := range t {
		atoms = append(atoms, a)
	}
	slices.SortFunc(atoms, func(a, b atom) int { return displayOrder(a.key, a.args, b.key, b.args) })
	for _, a := range atoms {
		if !f(a.args) {
			return
		}
	}
}

// Preds returns the predicates present, sorted.
func (s *Store) Preds() []ast.PredKey {
	out := make([]ast.PredKey, 0, len(s.m))
	for k := range s.m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Clone deep-copies the store.
func (s *Store) Clone() *Store {
	c := NewStore()
	for k, t := range s.m {
		c.m[k] = maps.Clone(t)
		c.count += len(t)
	}
	return c
}

// Equal reports set equality.
func (s *Store) Equal(o *Store) bool {
	if s.count != o.count {
		return false
	}
	for k, t := range s.m {
		ot := o.m[k]
		if len(ot) != len(t) {
			return false
		}
		for key := range t {
			if _, ok := ot[key]; !ok {
				return false
			}
		}
	}
	return true
}

// FromDB converts a core-engine interpretation to a plain atom set: the
// cost value of each tuple becomes an ordinary final argument.
func FromDB(db *relation.DB) *Store {
	s := NewStore()
	for _, k := range db.Preds() {
		rel := db.Rel(k)
		rel.Each(func(row relation.Row) bool {
			args := row.Args
			if row.HasCost {
				args = append(append([]val.T{}, row.Args...), row.Cost)
			}
			s.Add(k, args)
			return true
		})
	}
	return s
}

// SubsetOf reports s ⊆ o.
func (s *Store) SubsetOf(o *Store) bool {
	for k, t := range s.m {
		ot := o.m[k]
		if len(t) > len(ot) {
			return false
		}
		for key := range t {
			if _, ok := ot[key]; !ok {
				return false
			}
		}
	}
	return true
}
