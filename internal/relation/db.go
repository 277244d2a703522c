package relation

import (
	"maps"
	"slices"
	"sort"
	"strings"

	"repro/internal/ast"
	"repro/internal/lattice"
	"repro/internal/val"
)

// DB is an aggregate Herbrand interpretation (Definition 3.3): one
// relation per predicate, each respecting the cost functional dependency.
type DB struct {
	Schemas ast.Schemas
	rels    map[ast.PredKey]*Relation
}

// NewDB creates an empty interpretation over the given schemas.
func NewDB(s ast.Schemas) *DB {
	return &DB{Schemas: s, rels: map[ast.PredKey]*Relation{}}
}

// Rel returns the relation for k, creating it on first use.
func (db *DB) Rel(k ast.PredKey) *Relation {
	if r, ok := db.rels[k]; ok {
		return r
	}
	pi := db.Schemas.Info(k)
	if pi == nil {
		pi = &ast.PredInfo{Key: k, Arity: k.Arity()}
		db.Schemas[k] = pi
	}
	r := New(pi)
	db.rels[k] = r
	return r
}

// SetRel replaces the relation stored for k (used by the naive fixpoint,
// which computes each T_P application into a fresh relation).
func (db *DB) SetRel(k ast.PredKey, r *Relation) { db.rels[k] = r }

// Has reports whether a relation exists (possibly empty) for k.
func (db *DB) Has(k ast.PredKey) bool { _, ok := db.rels[k]; return ok }

// Preds returns the predicate keys with a materialized relation, sorted.
func (db *DB) Preds() []ast.PredKey {
	out := make([]ast.PredKey, 0, len(db.rels))
	for k := range db.rels {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Named returns the predicate keys named name (of any arity) with a
// materialized relation, sorted — without sorting every predicate.
func (db *DB) Named(name string) []ast.PredKey {
	var out []ast.PredKey
	for k := range db.rels {
		if k.Name() == name {
			out = append(out, k)
		}
	}
	slices.Sort(out)
	return out
}

// TupleKeys returns, in keys[:count], the predicate keys named name with
// a materialized relation that take n non-cost arguments, in arity
// order: name/n without a cost, then the cost predicate name/n+1. A name
// declared at two arities can have both, so a lookup by name and
// arguments — the one resolver of Model.Has/Cost/Match and of
// explanations — tries each. An array, not a slice, so a lookup
// allocates nothing for it.
func (db *DB) TupleKeys(name string, n int) (keys [2]ast.PredKey, count int) {
	for arity := n; arity <= n+1; arity++ {
		k := ast.MakePredKey(name, arity)
		if pi := db.Schemas.Info(k); pi != nil && pi.NonCost() == n && db.Has(k) {
			keys[count] = k
			count++
		}
	}
	return keys, count
}

// Share returns a new interpretation holding db's relations themselves,
// not copies: a caller that SetRels a private copy of a relation before
// writing to it leaves db untouched.
func (db *DB) Share() *DB {
	c := NewDB(db.Schemas)
	maps.Copy(c.rels, db.rels)
	return c
}

// Clone deep-copies the interpretation: the copy's relations share no
// writable storage with db's, and both stay writable — unlike
// Relation.Clone, which hands the storage on to the clone.
func (db *DB) Clone() *DB {
	c := NewDB(db.Schemas)
	for k, r := range db.rels {
		c.rels[k] = r.copy()
	}
	return c
}

// Leq reports db ⊑ other, restricted to the given predicates (nil = all
// predicates of db).
func (db *DB) Leq(other *DB, preds []ast.PredKey) bool {
	if preds == nil {
		preds = db.Preds()
	}
	for _, k := range preds {
		r, ok := db.rels[k]
		if !ok || r.Len() == 0 {
			continue
		}
		o := other.rels[k]
		if o == nil {
			o = New(r.Info)
		}
		if !r.Leq(o) {
			return false
		}
	}
	return true
}

// Equal reports lattice equality over the given predicates (nil = union of
// both sides' predicates).
func (db *DB) Equal(other *DB, preds []ast.PredKey) bool {
	if preds == nil {
		set := map[ast.PredKey]bool{}
		for k := range db.rels {
			set[k] = true
		}
		for k := range other.rels {
			set[k] = true
		}
		for k := range set {
			preds = append(preds, k)
		}
	}
	return db.Leq(other, preds) && other.Leq(db, preds)
}

// Join merges other into db tuple-wise, reporting change.
func (db *DB) Join(other *DB) bool {
	changed := false
	for _, k := range other.Preds() {
		if db.Rel(k).Join(other.rels[k]) {
			changed = true
		}
	}
	return changed
}

// Meet returns the tuple-wise greatest lower bound of db and other over
// db's predicates (Theorem 3.1's ⊓ on interpretations): a non-cost tuple
// survives only if present on both sides; a cost tuple takes the cost meet
// and survives unless both sides lack it.
func (db *DB) Meet(other *DB) *DB {
	out := NewDB(db.Schemas)
	for _, k := range db.Preds() {
		r := db.rels[k]
		o := other.rels[k]
		dst := out.Rel(k)
		r.Each(func(row Row) bool {
			if !row.HasCost {
				if o != nil {
					if _, ok := o.Get(row.Args); ok {
						dst.InsertJoin(row.Args, val.T{})
					}
				}
				return true
			}
			var orow Row
			var ok bool
			if o != nil {
				orow, ok = o.GetOrDefault(row.Args)
			} else {
				orow, ok = (&Relation{Info: r.Info}).GetOrDefault(row.Args)
			}
			if !ok {
				// The other interpretation lacks the tuple entirely (and
				// has no default): the glb drops it for non-default
				// predicates.
				return true
			}
			dst.InsertJoin(row.Args, r.Info.L.Meet(row.Cost, orow.Cost))
			return true
		})
	}
	return out
}

// AddFact inserts a ground fact (join semantics).
func (db *DB) AddFact(pred string, args []val.T, cost lattice.Elem) bool {
	hasCostArgs := args
	pi := db.Schemas.Info(ast.MakePredKey(pred, len(args)+1))
	if pi != nil && pi.HasCost {
		return db.Rel(pi.Key).InsertJoin(hasCostArgs, cost)
	}
	k := ast.MakePredKey(pred, len(args))
	return db.Rel(k).InsertJoin(args, cost)
}

// String renders the interpretation as sorted ground facts, one per line.
func (db *DB) String() string {
	var b strings.Builder
	for _, k := range db.Preds() {
		r := db.rels[k]
		for _, row := range r.Rows() {
			b.WriteString(FormatFact(k.Name(), row))
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// FormatFact renders one row as a ground fact in concrete syntax.
func FormatFact(pred string, row Row) string {
	parts := make([]string, 0, len(row.Args)+1)
	for _, a := range row.Args {
		parts = append(parts, a.String())
	}
	if row.HasCost {
		parts = append(parts, row.Cost.String())
	}
	if len(parts) == 0 {
		return pred + "."
	}
	return pred + "(" + strings.Join(parts, ", ") + ")."
}
