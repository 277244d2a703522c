// Package relation implements tuple storage for aggregate Herbrand
// interpretations (Definition 3.3 of Ross & Sagiv, PODS 1992).
//
// A relation for a cost predicate maps each tuple of non-cost arguments to
// a single cost value, enforcing the functional dependency of the cost
// argument on the other arguments (§2.3.1). Only the *core* of an
// extension is stored (§2.3.3): for a default-value cost predicate,
// tuples carrying the default (bottom) value are virtual and looked up via
// GetOrDefault.
//
// # Concurrency: the frozen-snapshot contract
//
// Relations are single-writer structures: no Insert* call may overlap any
// other call on the same relation. Once a relation is frozen — no writer
// mutates it for the duration — any number of goroutines may read it
// concurrently (Get, GetOrDefault, Each, Rows, Match, Leq, Equal). This
// includes Match, whose lazily built hash indexes are published through an
// atomic copy-on-write pointer so that concurrent readers racing to build
// the same index are safe. The component walk in internal/core relies on
// exactly this contract: completed lower components are frozen and shared
// by pointer across workers and across the models SolveMore chains, while
// each in-progress component writes only to private clones.
package relation

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/ast"
	"repro/internal/lattice"
	"repro/internal/val"
)

// Row is one stored tuple: the non-cost arguments plus the cost value (the
// zero val.T and HasCost=false for ordinary predicates).
type Row struct {
	Args    []val.T
	Cost    lattice.Elem
	HasCost bool
}

// Relation stores the core extension of one predicate.
type Relation struct {
	Info *ast.PredInfo
	keys []string       // insertion order, for deterministic iteration
	rows map[string]int // key -> index into keys/data
	data []Row
	// idx holds the lazily built hash indexes: a bound-position bitmask
	// maps to (projection key -> bucket of row indices in insertion
	// order). The outer map is immutable once published; adding an index
	// for a new mask copies it and swaps the pointer, so frozen relations
	// can be read — and have indexes built — by many goroutines at once.
	// The inner maps and their buckets are mutated in place only by
	// insertNew, which the single-writer contract keeps exclusive of all
	// readers.
	idx     atomic.Pointer[indexSet]
	buildMu sync.Mutex // serializes concurrent lazy index builds
	// pkbuf is writer-side scratch for projection keys during index
	// maintenance, covered by the same single-writer contract as data.
	pkbuf []byte
}

// indexSet is the immutable collection of per-mask indexes; see Relation.idx.
type indexSet struct {
	byMask map[uint64]map[string]*bucket
}

// bucket holds one projection key's row indices. It is a pointer target
// so insertNew can extend a bucket in place without re-allocating the
// map key string on every new row (map assignment, unlike lookup,
// always copies a converted []byte key).
type bucket struct{ rows []int }

// New creates an empty relation with the given schema.
func New(info *ast.PredInfo) *Relation {
	return &Relation{Info: info, rows: map[string]int{}}
}

// Reserve sizes an empty relation for n rows, so a bulk load of known
// size (a program's facts) does not grow its way up; on a relation that
// already holds rows it does nothing.
func (r *Relation) Reserve(n int) {
	if len(r.data) == 0 {
		r.rows = make(map[string]int, n)
		r.keys = make([]string, 0, n)
		r.data = make([]Row, 0, n)
	}
}

// Len returns the number of stored (core) tuples.
func (r *Relation) Len() int { return len(r.data) }

// Get returns the stored row for the given non-cost arguments.
func (r *Relation) Get(args []val.T) (Row, bool) {
	i, ok := r.rows[val.KeyOf(args)]
	if !ok {
		return Row{}, false
	}
	return r.data[i], true
}

// At returns the i-th stored row in insertion order. It is the random
// access primitive behind iterator-based scans: an iterator holds the
// index range, not a materialized row slice.
func (r *Relation) At(i int) Row { return r.data[i] }

// GetKey is Get with a caller-built tuple key (val.AppendKeyOf into a
// reusable buffer), so point lookups on a hot path allocate nothing.
// The key must be exactly val.KeyOf of the non-cost arguments.
func (r *Relation) GetKey(key []byte) (Row, bool) {
	i, ok := r.rows[string(key)]
	if !ok {
		return Row{}, false
	}
	return r.data[i], true
}

// LookupKey is GetKey returning additionally the interned key string the
// relation stores for the row. Callers that need to retain the key (the
// engine's Δ-set dedup) can hold the interned string instead of
// converting the byte key again, which would allocate per derivation.
func (r *Relation) LookupKey(key []byte) (Row, string, bool) {
	i, ok := r.rows[string(key)]
	if !ok {
		return Row{}, "", false
	}
	return r.data[i], r.keys[i], true
}

// GetOrDefault behaves like Get but, for a default-value cost predicate,
// synthesizes the default (bottom) row on a miss (§2.3.2). ok is false
// only when the tuple is genuinely absent from the interpretation.
func (r *Relation) GetOrDefault(args []val.T) (Row, bool) {
	if row, ok := r.Get(args); ok {
		return row, true
	}
	if r.Info.HasDefault {
		return Row{Args: args, Cost: r.Info.L.Bottom(), HasCost: true}, true
	}
	return Row{}, false
}

// ConflictError reports a violation of the cost functional dependency
// within a single application of T_P (the program is not cost-consistent,
// Definition 2.6).
type ConflictError struct {
	Pred     ast.PredKey
	Args     []val.T
	Old, New lattice.Elem
}

func (e *ConflictError) Error() string {
	parts := make([]string, len(e.Args))
	for i, a := range e.Args {
		parts[i] = a.String()
	}
	return fmt.Sprintf("relation: cost conflict on %s(%s): %s vs %s",
		e.Pred.Name(), strings.Join(parts, ", "), e.Old, e.New)
}

// InsertStrict adds a tuple, failing with a ConflictError if the same
// non-cost arguments are already present with a different cost. It is used
// for a single T_P application, where conflict-free programs can never
// produce two distinct costs (Lemma 2.3).
func (r *Relation) InsertStrict(args []val.T, cost lattice.Elem) error {
	k := val.KeyOf(args)
	if i, ok := r.rows[k]; ok {
		if !r.Info.HasCost {
			return nil
		}
		if !lattice.Eq(r.Info.L, r.data[i].Cost, cost) {
			return &ConflictError{Pred: r.Info.Key, Args: args, Old: r.data[i].Cost, New: cost}
		}
		return nil
	}
	r.insertNew(k, args, cost)
	return nil
}

// InsertJoin adds a tuple, joining costs on collision, and reports whether
// the relation changed (a new tuple, or a cost strictly increased in ⊑).
// It is the accumulation step of the semi-naive fixpoint, sound because
// admissible programs are monotone (Lemma 4.1).
func (r *Relation) InsertJoin(args []val.T, cost lattice.Elem) bool {
	k := val.KeyOf(args)
	if i, ok := r.rows[k]; ok {
		if !r.Info.HasCost {
			return false
		}
		j := r.Info.L.Join(r.data[i].Cost, cost)
		if lattice.Eq(r.Info.L, j, r.data[i].Cost) {
			return false
		}
		r.data[i].Cost = j
		return true
	}
	if r.Info.HasDefault && lattice.Eq(r.Info.L, cost, r.Info.L.Bottom()) {
		// Default rows are virtual; storing them would bloat the core
		// without changing the interpretation.
		return false
	}
	r.insertNew(k, args, cost)
	return true
}

// InsertJoinKey is InsertJoin with a caller-built tuple key (which must
// be exactly val.KeyOf(args)). The join-on-collision path — by far the
// common case once a fixpoint is warm — then allocates nothing; only a
// genuinely new row pays for copying the key and arguments.
func (r *Relation) InsertJoinKey(key []byte, args []val.T, cost lattice.Elem) bool {
	if i, ok := r.rows[string(key)]; ok {
		if !r.Info.HasCost {
			return false
		}
		j := r.Info.L.Join(r.data[i].Cost, cost)
		if lattice.Eq(r.Info.L, j, r.data[i].Cost) {
			return false
		}
		r.data[i].Cost = j
		return true
	}
	if r.Info.HasDefault && lattice.Eq(r.Info.L, cost, r.Info.L.Bottom()) {
		return false
	}
	r.insertNew(string(key), args, cost)
	return true
}

func (r *Relation) insertNew(k string, args []val.T, cost lattice.Elem) {
	row := Row{Args: append([]val.T{}, args...), HasCost: r.Info.HasCost}
	if r.Info.HasCost {
		row.Cost = cost
	}
	idx := len(r.data)
	r.rows[k] = idx
	r.keys = append(r.keys, k)
	r.data = append(r.data, row)
	if is := r.idx.Load(); is != nil {
		for mask, ix := range is.byMask {
			r.pkbuf = AppendProjKey(r.pkbuf[:0], row.Args, mask)
			if b := ix[string(r.pkbuf)]; b != nil {
				b.rows = append(b.rows, idx)
			} else {
				ix[string(r.pkbuf)] = &bucket{rows: []int{idx}}
			}
		}
	}
}

// Each calls f on every stored row in insertion order.
func (r *Relation) Each(f func(Row) bool) {
	for i := range r.data {
		if !f(r.data[i]) {
			return
		}
	}
}

// Rows returns all rows in deterministic sorted order: ascending
// tuple-wise val.Compare over the non-cost arguments (by kind, then by
// the kind's natural order — so numbers sort numerically, not as
// strings). The order depends only on the tuples present, never on
// insertion history, so identical interpretations render identically
// across runs, processes and resumed checkpoints. Rows never mutates
// the relation and is safe for concurrent readers.
func (r *Relation) Rows() []Row {
	out := append([]Row{}, r.data...)
	sort.Slice(out, func(i, j int) bool {
		return CompareArgs(out[i].Args, out[j].Args) < 0
	})
	return out
}

// CompareArgs orders two argument tuples lexicographically by
// val.Compare, shorter tuples first on a shared prefix.
func CompareArgs(a, b []val.T) int {
	for i := range a {
		if i >= len(b) {
			return 1
		}
		if c := val.Compare(a[i], b[i]); c != 0 {
			return c
		}
	}
	if len(a) < len(b) {
		return -1
	}
	return 0
}

// Match calls f on each row whose non-cost arguments agree with pattern
// (nil entries are wildcards). When at least one position is bound, a hash
// index on the bound positions is built lazily and consulted. Rows are
// visited in insertion order, whether or not an index exists. Match is safe
// for concurrent readers on a frozen relation (see the package doc); the
// lazy index build is published copy-on-write so racing readers never
// observe a partially built index.
func (r *Relation) Match(pattern []*val.T, f func(Row) bool) {
	var mask uint64
	for i, p := range pattern {
		if p != nil && i < 64 {
			mask |= 1 << uint(i)
		}
	}
	if mask == 0 {
		r.Each(f)
		return
	}
	var ix map[string]*bucket
	if is := r.idx.Load(); is != nil {
		ix = is.byMask[mask]
	}
	if ix == nil {
		ix = r.buildIndex(mask)
	}
	var b strings.Builder
	for i, p := range pattern {
		if p == nil || i >= 64 {
			continue
		}
		b.WriteString(p.Key())
		b.WriteByte(0)
	}
	bk := ix[b.String()]
	if bk == nil {
		return
	}
	for _, i := range bk.rows {
		row := r.data[i]
		matched := true
		for j, p := range pattern {
			if p != nil && j >= 64 && !val.Equal(row.Args[j], *p) {
				matched = false
				break
			}
		}
		if matched && !f(row) {
			return
		}
	}
}

// Bucket returns the index bucket for the projection key under mask:
// the insertion-order indices of all rows whose masked argument
// positions encode to key. The key must be built in projKey format
// (each bound position's val Key followed by a 0 byte, positions in
// ascending order, only positions < 64). The index is built lazily
// exactly as for Match; the returned slice must not be mutated, and on
// a frozen relation it is stable. Bucket is the probe side of the
// executor's hash joins — the lazily built per-mask index is the
// presized build side, shared by every probe against the relation.
func (r *Relation) Bucket(mask uint64, key []byte) []int {
	var ix map[string]*bucket
	if is := r.idx.Load(); is != nil {
		ix = is.byMask[mask]
	}
	if ix == nil {
		ix = r.buildIndex(mask)
	}
	b := ix[string(key)]
	if b == nil {
		return nil
	}
	return b.rows
}

// AppendProjKey appends the projection key of args over mask to dst in
// exactly the encoding the per-mask indexes are keyed by.
func AppendProjKey(dst []byte, args []val.T, mask uint64) []byte {
	for i := range args {
		if mask&(1<<uint(i)) == 0 {
			continue
		}
		dst = val.AppendKey(dst, args[i])
		dst = append(dst, 0)
	}
	return dst
}

// buildIndex constructs the hash index for mask and publishes it
// copy-on-write. Concurrent builders serialize on buildMu; each re-checks
// under the lock so the index is built at most once. Readers that loaded
// the previous indexSet keep using it unharmed — the old inner maps are
// never mutated by a build.
func (r *Relation) buildIndex(mask uint64) map[string]*bucket {
	r.buildMu.Lock()
	defer r.buildMu.Unlock()
	if is := r.idx.Load(); is != nil {
		if ix, ok := is.byMask[mask]; ok {
			return ix
		}
	}
	// Presize for the common one-row-per-bucket shape so the build does
	// not rehash while the fixpoint is paused on it. The projection key
	// goes through a scratch buffer: a key string is allocated only per
	// distinct bucket, not per row.
	ix := make(map[string]*bucket, len(r.data))
	var pk []byte
	for i := range r.data {
		pk = AppendProjKey(pk[:0], r.data[i].Args, mask)
		if b := ix[string(pk)]; b != nil {
			b.rows = append(b.rows, i)
		} else {
			ix[string(pk)] = &bucket{rows: []int{i}}
		}
	}
	next := &indexSet{byMask: map[uint64]map[string]*bucket{mask: ix}}
	if is := r.idx.Load(); is != nil {
		for m, v := range is.byMask {
			next.byMask[m] = v
		}
	}
	r.idx.Store(next)
	return ix
}

// Clone returns a deep-enough copy (rows are copied; values are immutable).
func (r *Relation) Clone() *Relation {
	c := New(r.Info)
	c.keys = append([]string{}, r.keys...)
	c.data = append([]Row{}, r.data...)
	for k, v := range r.rows {
		c.rows[k] = v
	}
	return c
}

// sameShape reports whether rows stored under one schema are valid as
// they stand under the other: same cost lattice and default declaration
// (so the stored core is the same set of rows).
func sameShape(a, b *ast.PredInfo) bool {
	if a == b {
		return true
	}
	return a.HasCost == b.HasCost && a.HasDefault == b.HasDefault &&
		(!a.HasCost || a.L.Name() == b.L.Name())
}

// Leq reports whether r ⊑ other per Definition 3.2 lifted to relations:
// every tuple of r must appear in other with a ⊒ cost. Virtual default
// rows never matter: they are ⊑ anything present, and if absent from the
// other side they are matched by the other side's virtual default.
func (r *Relation) Leq(other *Relation) bool {
	ok := true
	r.Each(func(row Row) bool {
		o, found := other.GetOrDefault(row.Args)
		if !found {
			ok = false
			return false
		}
		if row.HasCost && !r.Info.L.Leq(row.Cost, o.Cost) {
			ok = false
			return false
		}
		return true
	})
	return ok
}

// Equal reports lattice equality of the two relations.
func (r *Relation) Equal(other *Relation) bool {
	return r.Leq(other) && other.Leq(r)
}

// Join merges other into r (tuple-wise cost join), reporting change.
// Joining into an empty relation of the same shape — how every solve
// takes in its EDB — adopts other's rows and interned keys as they are
// (rows are immutable values, shared as Clone shares them): each row is
// hashed and stored once, with no key re-encoding and no argument copy.
func (r *Relation) Join(other *Relation) bool {
	if len(r.data) == 0 && r.idx.Load() == nil && sameShape(r.Info, other.Info) {
		r.keys = append(r.keys, other.keys...)
		r.data = append(r.data, other.data...)
		r.rows = make(map[string]int, len(r.keys))
		for i, k := range r.keys {
			r.rows[k] = i
		}
		return len(r.data) > 0
	}
	changed := false
	other.Each(func(row Row) bool {
		if r.InsertJoin(row.Args, row.Cost) {
			changed = true
		}
		return true
	})
	return changed
}
