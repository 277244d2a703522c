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
// # Storage
//
// Rows are numbered 0, 1, 2, … in insertion order; a row id is the
// row's position, and rows are never removed. The non-cost arguments
// live in append-only chunks of val.T (an arena): a relation's first
// chunk is small (or sized by Reserve), each further chunk doubles the
// capacity up to a fixed cap, and Row.Args is a full-capacity subslice
// of a chunk, so a row never moves and anything holding its arguments —
// a Δ set's row ids, a γ group reference — stays valid as the relation
// grows. Costs, the one mutable part of a row, live in a parallel column
// of pages of 1<<pageShift rows, allocated a chunk's worth at a time
// (see page), so neither column is ever copied to grow.
//
// A val.T is one pointer-free 64-bit word (the value contract is in
// package val's doc), so the arenas hold no pointers: chunks take no
// write barriers to fill and the garbage collector does not scan them.
//
// The primary key — the cost functional dependency — is an
// open-addressing table of row ids keyed by a hash of the values' words
// (val.Hash) and confirmed by comparing them (val.Same); no key string is
// built on any insert or lookup. Tuple identity is word identity: two
// tuples are one row exactly when their values are Same position by
// position. (Their val.KeyOf display keys can coincide when a text holds
// a NUL byte; display keys only order and print.)
// Intern ids, and so hashes, differ between processes, which is safe
// because nothing ever iterates a table: every enumeration runs in row-id
// order. GroupSet exposes the same table to γ (internal/exec,
// internal/core) as an insertion-ordered set of value tuples.
//
// A hash index on a set of bound positions (a bitmask) maps the hash of
// the projection onto those positions to a chain of row ids in insertion
// order. Indexes are built lazily on first use and maintained by every
// later insert. A Cursor opened on a chain stops at the relation's length
// at the time it was opened, so rows derived while it is being drained
// are never offered.
//
// # Generations: Clone
//
// By monotonicity a successor model only appends rows and raises costs,
// so a relation and its clone share storage instead of copying it. The
// relations that share one storage form a lineage, and the newest, its
// tip, is the only one that may write. Cloning the tip hands that role
// on (one compare-and-swap decides which clone gets it): the clone
// shares the argument chunks, the cost column, the key table and every
// built index, and appends past its predecessor's length, which every
// reader of the predecessor stops at — cursors at their end, lookups by
// skipping slot entries whose row or group id lies beyond their own
// length. Slots and chain links the predecessor can read are written
// with atomic stores and always read with atomic loads. The first raise
// of a cost below the clone point copies that row's cost page (64 rows,
// 1 KB, at most); a table rehash copies the table. Writing a relation
// after a clone has taken its storage over panics.
//
// Cloning a relation that is not the tip — a newer clone already extends
// it — forks: the clone starts a lineage of its own with a copy of the
// key table, of the partial last chunk and of the partial last cost
// page, shares the full cost pages copy-on-write and rebuilds indexes
// lazily. Joining into an empty relation (how a solve adopts the base
// EDB) and DB.Clone make private copies that leave the source writable.
//
// # Concurrency: the frozen-snapshot contract
//
// Relations are single-writer structures: no Insert* call may overlap any
// other call on the same relation. Once a relation is frozen — no writer
// mutates it for the duration — any number of goroutines may read it
// concurrently (Get, GetOrDefault, At, Each, Rows, Match, Seek, Clone,
// Leq, Equal), while the one clone that took its storage over is
// written. This includes Match and Seek, whose lazily built hash indexes
// are published through an atomic copy-on-write pointer so that
// concurrent readers racing to build the same index are safe. The
// component walk in internal/core relies on exactly this contract:
// completed lower components are frozen and shared by pointer across
// workers and across the models SolveMore chains, while each in-progress
// component writes only to its clones — which extend the relations of
// the model SolveMore continues without changing what that model's
// readers see.
package relation

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/ast"
	"repro/internal/lattice"
	"repro/internal/val"
)

// Row is one stored tuple: the non-cost arguments plus the cost value (the
// zero val.T and HasCost=false for ordinary predicates). Args aliases the
// relation's arena and must not be modified.
type Row struct {
	Args    []val.T
	Cost    lattice.Elem
	HasCost bool
}

// Chunk geometry: a fresh relation's first chunk holds 1<<firstShift
// rows, and chunks stop doubling at 1<<capShift rows. Cost pages hold
// 1<<pageShift rows, the unit a generation copies on write.
const (
	firstShift = 2
	capShift   = 9
	pageShift  = 6
	pageRows   = 1 << pageShift
)

// Relation stores the core extension of one predicate.
type Relation struct {
	Info *ast.PredInfo
	// n is the number of stored rows; width is the number of non-cost
	// arguments per row, fixed by the first insert.
	n, width int
	// shift is log2 of the first chunk's capacity in rows (see locate).
	shift uint
	// chunks is the argument arena: row i's arguments are
	// width values of chunks[c] at offset off*width, (c, off) = locate(i).
	chunks [][]val.T
	// costs is the cost column (cost predicates only) in pages: row i's
	// cost is costs[p][off], (p, off) = page(i).
	costs [][]lattice.Elem
	// base is the row count this generation shares with the one it
	// extends or forks (0 when it shares no cost page), and owned the
	// bitset of the pages below base it has copied since: the first
	// improvement of a row below base in a page not owned copies the page
	// (see setCost).
	base  int
	owned []uint64
	// keys is the primary key: each slot holds hash32<<32 | (row id+1), 0
	// when empty (see table).
	keys table
	// idx holds the lazily built hash indexes. The indexSet is immutable
	// once published; adding an index for a new mask copies it and swaps
	// the pointer, so frozen relations can be read — and have indexes
	// built — by many goroutines at once. The indexes themselves are
	// extended in place only by insertNew: a relation's own readers never
	// overlap it, and an older generation's read only below their length.
	idx     atomic.Pointer[indexSet]
	buildMu sync.Mutex // serializes concurrent lazy index builds
	// lin is the lineage whose storage this relation shares, nil until
	// it is first cloned with rows (see Clone).
	lin atomic.Pointer[lineage]
}

// lineage is the set of generations that share one storage: each was
// cloned from the one before it. Only tip, the newest, may write; a clone
// takes over the storage by swapping itself in as the tip.
type lineage struct {
	tip atomic.Pointer[Relation]
}

// New creates an empty relation with the given schema.
func New(info *ast.PredInfo) *Relation {
	return &Relation{Info: info, shift: firstShift}
}

// Reserve sizes an empty relation for n rows — the first chunk (up to the
// chunk cap) and the key table — so a bulk load of known size (a
// program's facts) does not grow its way up; on a relation that already
// holds rows it does nothing.
func (r *Relation) Reserve(n int) {
	if r.n != 0 {
		return
	}
	s := uint(firstShift)
	for s < capShift && 1<<s < n {
		s++
	}
	r.shift = s
	r.keys.reserve(n)
}

// Len returns the number of stored (core) tuples.
func (r *Relation) Len() int { return r.n }

// locate maps row i to its chunk and its row offset within the chunk.
// Chunk 0 holds the first 1<<shift rows and chunk c ≥ 1 starts at row
// 1<<(shift+c-1), doubling the capacity, until chunks reach 1<<capShift
// rows; from row 1<<capShift on every chunk holds exactly that many.
func (r *Relation) locate(i int) (c, off int) {
	if i >= 1<<capShift {
		return int(capShift-r.shift) + i>>capShift, i & (1<<capShift - 1)
	}
	c = bits.Len(uint(i) >> r.shift)
	if c == 0 {
		return 0, i
	}
	return c, i - 1<<(r.shift+uint(c)-1)
}

// chunkRows is the capacity in rows of chunk c.
func (r *Relation) chunkRows(c int) int {
	if c == 0 {
		return 1 << r.shift
	}
	return 1 << min(r.shift+uint(c)-1, capShift)
}

// page maps row i to its cost page and its row offset within the page.
// Rows from 1<<pageShift on fill pages of exactly that many rows; below
// it the pages are the arena's chunks (one page when the first chunk
// holds 1<<pageShift rows or more), so a small relation's costs take no
// more room than its rows.
func (r *Relation) page(i int) (p, off int) {
	s := min(r.shift, pageShift)
	if i >= pageRows {
		return int(pageShift-s) + i>>pageShift, i & (pageRows - 1)
	}
	if p = bits.Len(uint(i) >> s); p == 0 {
		return 0, i
	}
	return p, i - 1<<(s+uint(p)-1)
}

// args returns row i's arguments as a full-capacity subslice of the arena.
func (r *Relation) args(i int) []val.T {
	if r.width == 0 {
		return nil
	}
	c, off := r.locate(i)
	lo := off * r.width
	return r.chunks[c][lo : lo+r.width : lo+r.width]
}

// At returns the row with id i (the i-th stored row in insertion order),
// with its current cost. It is the random access primitive behind
// iterator-based scans and Δ sets: they hold row ids, not rows.
func (r *Relation) At(i int) Row {
	var row Row
	r.Load(i, &row)
	return row
}

// Load stores row i into *row: At for hot loops, which keep one Row and
// refill it instead of copying a returned one.
func (r *Relation) Load(i int, row *Row) {
	if uint(i) >= uint(r.n) {
		panic(fmt.Sprintf("relation: row %d out of range [0, %d)", i, r.n))
	}
	c, off := r.locate(i)
	row.Args = nil
	if w := r.width; w > 0 {
		lo := off * w
		row.Args = r.chunks[c][lo : lo+w : lo+w]
	}
	row.HasCost = r.Info.HasCost
	if row.HasCost {
		row.Cost = r.cost(i)
	} else {
		row.Cost = lattice.Elem{}
	}
}

// cost returns row i's cost.
func (r *Relation) cost(i int) lattice.Elem {
	p, off := r.page(i)
	return r.costs[p][off]
}

// setCost raises row i's cost to e. A row below base lives in a page
// the generation this one shares it with may still read, so the first
// such write copies that one page.
func (r *Relation) setCost(i int, e lattice.Elem) {
	p, off := r.page(i)
	if i < r.base {
		w, bit := p>>6, uint64(1)<<(p&63)
		if r.owned == nil {
			last, _ := r.page(r.base - 1)
			r.owned = make([]uint64, last>>6+1)
		}
		if r.owned[w]&bit == 0 {
			r.costs[p] = append(make([]lattice.Elem, 0, cap(r.costs[p])), r.costs[p]...)
			r.owned[w] |= bit
		}
	}
	r.costs[p][off] = e
}

// addPages appends the cost pages from offset off of arena chunk c to
// the chunk's end: one allocation, cut into pages.
func (r *Relation) addPages(c, off int) {
	rows := r.chunkRows(c) - off
	slab := make([]lattice.Elem, rows)
	for lo := 0; lo < rows; lo += pageRows {
		r.costs = append(r.costs, slab[lo:lo:min(lo+pageRows, rows)])
	}
}

// mustWrite panics when r is not its lineage's tip: a newer clone
// extends r's storage in place, so a write to r would show in it.
func (r *Relation) mustWrite() {
	if l := r.lin.Load(); l != nil && l.tip.Load() != r {
		panic(fmt.Sprintf("relation: write to %s after a clone took over its storage; write the clone", r.Info.Key))
	}
}

// Get returns the stored row for the given non-cost arguments.
func (r *Relation) Get(args []val.T) (Row, bool) {
	if id := r.ID(args); id >= 0 {
		return r.At(id), true
	}
	return Row{}, false
}

// ID returns the row id of the tuple with the given non-cost arguments,
// or -1 when the relation lacks it.
func (r *Relation) ID(args []val.T) int {
	id, _ := r.find(hashArgs(args), args)
	return id
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

// find looks args (hashing to h) up in the primary key. It returns the
// row id, or -1 and the empty slot an insert of args would take.
func (r *Relation) find(h uint64, args []val.T) (id, slot int) {
	t := &r.keys
	if r.n == 0 || len(args) != r.width {
		return -1, -1
	}
	tag := h >> 32
	mask := len(t.slots) - 1
	for i := int(tag) & mask; ; i = (i + 1) & mask {
		e := t.at(i)
		if e == 0 {
			return -1, i
		}
		// An id past r.n is a row a newer generation added.
		if id := int(uint32(e)) - 1; e>>32 == tag && id < r.n && sameArgs(r.args(id), args) {
			return id, i
		}
	}
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
	h := hashArgs(args)
	id, slot := r.find(h, args)
	if id < 0 {
		r.insertNew(h, slot, args, cost)
		return nil
	}
	if !r.Info.HasCost {
		return nil
	}
	if old := r.cost(id); !lattice.Eq(r.Info.L, old, cost) {
		return &ConflictError{Pred: r.Info.Key, Args: args, Old: old, New: cost}
	}
	return nil
}

// InsertConsistent adds a tuple unless the relation holds its non-cost
// arguments with another cost, which it reports by returning false — the
// load of data that must respect the cost functional dependency
// (§2.3.1). A tuple held with the same cost leaves the relation as it
// is, and a default-value predicate drops a bottom-valued new tuple, as
// InsertJoin does; either way it probes the key table once.
func (r *Relation) InsertConsistent(args []val.T, cost lattice.Elem) bool {
	h := hashArgs(args)
	id, slot := r.find(h, args)
	if id >= 0 {
		return !r.Info.HasCost || lattice.Eq(r.Info.L, r.cost(id), cost)
	}
	if !r.Info.HasDefault || !lattice.Eq(r.Info.L, cost, r.Info.L.Bottom()) {
		r.insertNew(h, slot, args, cost)
	}
	return true
}

// InsertJoin adds a tuple, joining costs on collision, and reports whether
// the relation changed (a new tuple, or a cost strictly increased in ⊑).
// It is the accumulation step of the semi-naive fixpoint, sound because
// admissible programs are monotone (Lemma 4.1).
func (r *Relation) InsertJoin(args []val.T, cost lattice.Elem) bool {
	_, changed := r.Upsert(args, cost)
	return changed
}

// Upsert is InsertJoin that also returns the id of the tuple's row, or -1
// when a default-value predicate drops a bottom-valued new tuple. The
// join-on-collision path allocates nothing; a new row copies its
// arguments into the arena.
func (r *Relation) Upsert(args []val.T, cost lattice.Elem) (int, bool) {
	h := hashArgs(args)
	id, slot := r.find(h, args)
	if id >= 0 {
		if !r.Info.HasCost {
			return id, false
		}
		old := r.cost(id)
		j := r.Info.L.Join(old, cost)
		if lattice.Eq(r.Info.L, j, old) {
			return id, false
		}
		r.mustWrite()
		r.setCost(id, j)
		return id, true
	}
	if r.Info.HasDefault && lattice.Eq(r.Info.L, cost, r.Info.L.Bottom()) {
		// Default rows are virtual; storing them would bloat the core
		// without changing the interpretation.
		return -1, false
	}
	return r.insertNew(h, slot, args, cost), true
}

// insertNew appends a row for args (hashing to h; slot is find's empty
// slot, or -1 when the table was empty) and maintains every built index.
func (r *Relation) insertNew(h uint64, slot int, args []val.T, cost lattice.Elem) int {
	r.mustWrite()
	id := r.n
	if id == 0 {
		r.width = len(args)
	} else if len(args) != r.width {
		panic(fmt.Sprintf("relation: %s: %d arguments in a relation of width %d", r.Info.Key, len(args), r.width))
	}
	c, off := r.locate(id)
	if r.width > 0 {
		if off == 0 {
			r.chunks = append(r.chunks, make([]val.T, 0, r.chunkRows(c)*r.width))
		}
		r.chunks[c] = append(r.chunks[c], args...)
	}
	if r.Info.HasCost {
		p, _ := r.page(id)
		if p == len(r.costs) {
			r.addPages(c, off)
		}
		r.costs[p] = append(r.costs[p], cost)
	}
	r.n++
	r.keys.put(h, slot, id)
	if is := r.idx.Load(); is != nil {
		a := r.args(id)
		for _, ix := range is.ixs {
			ix.add(r, id, a)
		}
	}
	return id
}

// Each calls f on every stored row in insertion order (rows added by f
// are not visited).
func (r *Relation) Each(f func(Row) bool) {
	for i, n := 0, r.n; i < n; i++ {
		if !f(r.At(i)) {
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
	out := make([]Row, r.n)
	for i := range out {
		out[i] = r.At(i)
	}
	SortRows(out)
	return out
}

// SortRows sorts rows into Rows' order.
func SortRows(rows []Row) {
	sort.Slice(rows, func(i, j int) bool {
		return CompareArgs(rows[i].Args, rows[j].Args) < 0
	})
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
		if p == nil {
			continue
		}
		if i >= r.width {
			return // no stored tuple has this position
		}
		if i < 64 {
			mask |= 1 << uint(i)
		}
	}
	if mask == 0 {
		r.Each(f)
		return
	}
	key := make([]val.T, r.width)
	for i, p := range pattern {
		if p != nil {
			key[i] = *p
		}
	}
	c := r.Seek(mask, key)
	for id, ok := c.Next(); ok; id, ok = c.Next() {
		row := r.At(id)
		matched := true
		for j := 64; j < len(pattern); j++ {
			if p := pattern[j]; p != nil && !val.Same(row.Args[j], *p) {
				matched = false
				break
			}
		}
		if matched && !f(row) {
			return
		}
	}
}

// Seek opens a cursor over the rows whose argument positions in mask
// agree with key (a full-width tuple; only the masked positions, all
// below 64, are read), in insertion order. The hash index for mask is
// built lazily exactly as for Match. The cursor ends at the relation's
// current length: rows inserted while it is drained are not offered.
// Seek is the probe side of the executor's hash joins — the lazily built
// per-mask index is the presized build side, shared by every probe
// against the relation.
func (r *Relation) Seek(mask uint64, key []val.T) Cursor {
	ix := r.index(mask)
	g, _ := ix.find(r, hashProj(key, mask), key)
	if g < 0 {
		return Cursor{}
	}
	return Cursor{ix: ix, id: ix.head[g], end: int32(r.n)}
}

// Cursor walks one index chain; see Seek. The zero Cursor is empty.
type Cursor struct {
	ix      *index
	id, end int32
}

// Next returns the next row id of the chain.
func (c *Cursor) Next() (int, bool) {
	id := c.id
	if id < 0 || id >= c.end {
		return 0, false
	}
	c.id = atomic.LoadInt32(&c.ix.next[id])
	return int(id), true
}

// index returns the hash index for mask, building it on first use.
func (r *Relation) index(mask uint64) *index {
	if is := r.idx.Load(); is != nil {
		if ix := is.get(mask); ix != nil {
			return ix
		}
	}
	return r.buildIndex(mask)
}

// buildIndex constructs the hash index for mask and publishes it
// copy-on-write. Concurrent builders serialize on buildMu; each re-checks
// under the lock so the index is built at most once. Readers that loaded
// the previous indexSet keep using it unharmed — a build never mutates
// an index already published.
func (r *Relation) buildIndex(mask uint64) *index {
	r.buildMu.Lock()
	defer r.buildMu.Unlock()
	old := r.idx.Load()
	if old != nil {
		if ix := old.get(mask); ix != nil {
			return ix
		}
	}
	ix := &index{mask: mask, next: make([]int32, 0, r.n)}
	ix.groups.reserve(r.n)
	for id := 0; id < r.n; id++ {
		ix.add(r, id, r.args(id))
	}
	next := &indexSet{}
	if old != nil {
		next.ixs = append(next.ixs, old.ixs...)
	}
	next.ixs = append(next.ixs, ix)
	r.idx.Store(next)
	return ix
}

// indexSet is the immutable collection of per-mask indexes; see
// Relation.idx. A relation carries a handful of masks at most, so a
// linear scan beats a map.
type indexSet struct {
	ixs []*index
}

func (s *indexSet) get(mask uint64) *index {
	for _, ix := range s.ixs {
		if ix.mask == mask {
			return ix
		}
	}
	return nil
}

// index is a hash index on the argument positions in mask: groups maps
// the hash of a projection to a group id, whose rows form a chain in
// insertion order from head[g] through next to tail[g].
type index struct {
	mask       uint64
	groups     table // hash32<<32 | (group id+1)
	head, tail []int32
	next       []int32 // per row id: the next row of its group, -1 at the end
	// inherited is the length of next when this index was shared from
	// an older generation's: its cursors read those entries, so they
	// are linked with atomic stores.
	inherited int
}

// share returns a copy of ix that a clone extends in place: it appends
// to the same arrays past their current lengths.
func (ix *index) share() *index {
	c := *ix
	c.groups.shared = true
	c.inherited = len(ix.next)
	return &c
}

// find returns the group whose projection agrees with key under the
// index's mask, or -1 and the empty slot a new group would take.
func (ix *index) find(r *Relation, h uint64, key []val.T) (g, slot int) {
	t := &ix.groups
	if len(t.slots) == 0 {
		return -1, -1
	}
	tag := h >> 32
	mask := len(t.slots) - 1
	for i := int(tag) & mask; ; i = (i + 1) & mask {
		e := t.at(i)
		if e == 0 {
			return -1, i
		}
		// A group past len(ix.head) is one a newer generation added.
		if g := int(uint32(e)) - 1; e>>32 == tag && g < len(ix.head) && sameProj(r.args(int(ix.head[g])), key, ix.mask) {
			return g, i
		}
	}
}

// add appends row id (arguments a) to the chain of its projection.
func (ix *index) add(r *Relation, id int, a []val.T) {
	ix.next = append(ix.next, -1)
	h := hashProj(a, ix.mask)
	g, slot := ix.find(r, h, a)
	if g >= 0 {
		if t := ix.tail[g]; int(t) < ix.inherited {
			atomic.StoreInt32(&ix.next[t], int32(id))
		} else {
			ix.next[t] = int32(id)
		}
		ix.tail[g] = int32(id)
		return
	}
	ix.groups.put(h, slot, len(ix.head))
	ix.head = append(ix.head, int32(id))
	ix.tail = append(ix.tail, int32(id))
}

// table is an open-addressing hash table with linear probing over a
// power-of-two slot array. Each slot packs the upper 32 bits of an entry's
// hash (which also pick its home slot) with the entry's id+1; 0 is empty.
// The caller resolves collisions by comparing values, so the table never
// holds a key.
//
// A table shared with older generations (shared) fills its empty slots
// with atomic stores, since their readers probe the same array; readers
// load slots atomically and skip ids past their own length. Entries are
// never removed, and an older generation's entries were all placed before
// any newer one's, so its probe sequences only grow longer.
type table struct {
	slots  []uint64
	used   int
	shared bool
}

// at loads slot i.
func (t *table) at(i int) uint64 { return atomic.LoadUint64(&t.slots[i]) }

// below returns a private copy of t without the entries whose id is n or
// more: those a newer generation added to a shared array. Dropping them
// breaks no probe sequence of the rest, which were all placed before them.
func (t *table) below(n int) table {
	c := table{slots: make([]uint64, len(t.slots))}
	for i := range t.slots {
		if e := t.at(i); e != 0 && int(uint32(e)) <= n {
			c.slots[i] = e
			c.used++
		}
	}
	return c
}

// reserve sizes an empty table for n entries.
func (t *table) reserve(n int) {
	if t.used == 0 && n > len(t.slots)*3/4 {
		t.slots = make([]uint64, tableSize(n))
	}
}

// tableSize is the smallest power of two that holds n entries at most
// three-quarters full.
func tableSize(n int) int {
	size := 8
	for size*3/4 < n {
		size *= 2
	}
	return size
}

// put stores id under hash h in slot (an empty slot found by the
// preceding lookup, or -1), growing the table first when it would pass
// three-quarters full.
func (t *table) put(h uint64, slot, id int) {
	t.used++
	if slot < 0 || t.used > len(t.slots)*3/4 {
		t.grow()
		slot = t.home(h >> 32)
	}
	if e := h>>32<<32 | uint64(id+1); t.shared {
		atomic.StoreUint64(&t.slots[slot], e)
	} else {
		t.slots[slot] = e
	}
}

// home returns the first empty slot on tag's probe sequence.
func (t *table) home(tag uint64) int {
	mask := len(t.slots) - 1
	i := int(tag) & mask
	for t.slots[i] != 0 {
		i = (i + 1) & mask
	}
	return i
}

// grow rehashes into a table sized for the current entry count; the
// stored hash bits place every entry without touching its values.
func (t *table) grow() {
	old := t.slots
	if size := tableSize(t.used); size > len(old) {
		t.slots, t.shared = make([]uint64, size), false
		for _, e := range old {
			if e != 0 {
				t.slots[t.home(e>>32)] = e
			}
		}
	}
}

// hashArgs hashes a whole argument tuple.
func hashArgs(args []val.T) uint64 {
	h := uint64(len(args))
	for i := range args {
		h = combine(h, val.Hash(args[i]))
	}
	return finish(h)
}

// hashProj hashes the projection of args onto the positions in mask.
func hashProj(args []val.T, mask uint64) uint64 {
	h := mask
	for m := mask; m != 0; m &= m - 1 {
		h = combine(h, val.Hash(args[bits.TrailingZeros64(m)]))
	}
	return finish(h)
}

func combine(h, v uint64) uint64 {
	return bits.RotateLeft64(h*0x9e3779b97f4a7c15, 27) ^ v
}

func finish(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	return h ^ h>>33
}

// sameArgs compares two argument tuples of equal length under val.Same,
// which is word equality.
func sameArgs(a, b []val.T) bool { return slices.Equal(a, b) }

// sameProj compares a and b on the positions in mask.
func sameProj(a, b []val.T, mask uint64) bool {
	for m := mask; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// GroupSet is an insertion-ordered set of value tuples of one width — a
// γ step's groups — held in the relations' open-addressing table: keyed
// by the hash of the tuple's values and confirmed by comparing them, so
// no key string is built. Group g is the g-th distinct tuple added, which
// makes 0, 1, …, Len()-1 first-occurrence order. The zero GroupSet is
// empty, for tuples of width 0.
type GroupSet struct {
	width, n int
	vals     []val.T // group g is vals[g*width : (g+1)*width]
	keys     table
}

// Reset empties s for tuples of the given width, keeping its storage.
func (s *GroupSet) Reset(width int) {
	s.width, s.n = width, 0
	s.vals = s.vals[:0]
	if s.keys.used > 0 {
		clear(s.keys.slots)
		s.keys.used = 0
	}
}

// Len returns the number of groups.
func (s *GroupSet) Len() int { return s.n }

// At returns group g's tuple, which the caller must not modify.
func (s *GroupSet) At(g int) []val.T {
	lo, hi := g*s.width, (g+1)*s.width
	return s.vals[lo:hi:hi]
}

// Add adds a copy of tuple unless s holds it, returning its group and
// whether it is new.
func (s *GroupSet) Add(tuple []val.T) (int, bool) {
	h := hashArgs(tuple)
	g, slot := s.find(h, tuple)
	if g >= 0 {
		return g, false
	}
	g = s.n
	s.vals = append(s.vals, tuple...)
	s.n++
	s.keys.put(h, slot, g)
	return g, true
}

// Find returns tuple's group, or -1 when s lacks it.
func (s *GroupSet) Find(tuple []val.T) int {
	g, _ := s.find(hashArgs(tuple), tuple)
	return g
}

// find looks tuple (hashing to h) up, returning its group, or -1 and the
// empty slot an Add would take (-1 when the table is unallocated).
func (s *GroupSet) find(h uint64, tuple []val.T) (g, slot int) {
	t := &s.keys
	if len(t.slots) == 0 {
		return -1, -1
	}
	tag := h >> 32
	mask := len(t.slots) - 1
	for i := int(tag) & mask; ; i = (i + 1) & mask {
		e := t.slots[i]
		if e == 0 {
			return -1, i
		}
		if e>>32 == tag {
			if g := int(uint32(e)) - 1; sameArgs(s.At(g), tuple) {
				return g, i
			}
		}
	}
}

// Clone returns a relation holding r's rows that can be written while r
// is read (see the package doc). When r is its lineage's tip, the clone
// takes that role over and extends r's storage in place: it shares the
// argument chunks, the cost pages, the key table and every built index,
// appends past r's length, and copies a cost page only when it first
// raises a cost r can read. r must not be written again. When r is not
// the tip — a newer clone already extends it — the clone is a fork that
// starts a lineage of its own: it copies r's key table, partial last
// chunk and partial last cost page, shares r's full cost pages
// copy-on-write (r can no longer write them) and rebuilds indexes
// lazily.
func (r *Relation) Clone() *Relation {
	c := &Relation{Info: r.Info, shift: r.shift}
	if r.n == 0 {
		return c // nothing to share
	}
	l := r.lineage()
	if !l.tip.CompareAndSwap(r, c) {
		c.copyRows(r, true)
		return c
	}
	c.lin.Store(l)
	c.n, c.width, c.base = r.n, r.width, r.n
	c.chunks = slices.Clone(r.chunks)
	c.costs = slices.Clone(r.costs)
	c.keys = table{slots: r.keys.slots, used: r.keys.used, shared: true}
	if is := r.idx.Load(); is != nil {
		ixs := make([]*index, len(is.ixs))
		for i, ix := range is.ixs {
			ixs[i] = ix.share()
		}
		c.idx.Store(&indexSet{ixs: ixs})
	}
	return c
}

// lineage returns r's lineage, starting one with r as its tip when r has
// none.
func (r *Relation) lineage() *lineage {
	if l := r.lin.Load(); l != nil {
		return l
	}
	l := &lineage{}
	l.tip.Store(r)
	if !r.lin.CompareAndSwap(nil, l) {
		return r.lin.Load()
	}
	return l
}

// copy returns a private copy of r, whether or not r is its lineage's
// tip, so both can be written independently (see copyRows).
func (r *Relation) copy() *Relation {
	c := &Relation{Info: r.Info}
	c.copyRows(r, false)
	return c
}

// copyRows makes r's rows a private copy of other's: full argument chunks
// are shared (their rows are immutable), the partial last chunk, the cost
// column and the key table are copied — the cost pages into one
// allocation, the table without the entries a newer generation added to
// it — and no index is carried over. When other is frozen for good (no
// longer its lineage's tip), its full cost pages are shared
// copy-on-write instead (see setCost) and only the partial last one is
// copied.
func (r *Relation) copyRows(other *Relation, frozen bool) {
	r.n, r.width, r.shift = other.n, other.width, other.shift
	r.chunks = slices.Clone(other.chunks)
	if last := len(r.chunks) - 1; last >= 0 && len(r.chunks[last]) < cap(r.chunks[last]) {
		tail := make([]val.T, len(r.chunks[last]), cap(r.chunks[last]))
		copy(tail, r.chunks[last])
		r.chunks[last] = tail
	}
	// Pages past other's length are empty or belong to a newer
	// generation; r allocates its own when it reaches them.
	var src [][]lattice.Elem
	if other.Info.HasCost && other.n > 0 {
		last, _ := other.page(other.n - 1)
		src = other.costs[:last+1]
	}
	r.costs = make([][]lattice.Elem, 0, len(src))
	if frozen {
		for len(src) > 0 && len(src[0]) == cap(src[0]) {
			r.base += len(src[0])
			r.costs, src = append(r.costs, src[0]), src[1:]
		}
	}
	size := 0
	for _, pg := range src {
		size += cap(pg)
	}
	slab := make([]lattice.Elem, size)
	for _, pg := range src {
		n := copy(slab, pg)
		r.costs, slab = append(r.costs, slab[:n:cap(pg)]), slab[cap(pg):]
	}
	r.keys = other.keys.below(other.n)
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
// takes in its EDB — adopts a private copy of other's rows (see
// copyRows): no row is hashed or inserted again, and other stays its
// lineage's tip.
func (r *Relation) Join(other *Relation) bool {
	if other.n == 0 {
		return false
	}
	if r.n == 0 && r.idx.Load() == nil && sameShape(r.Info, other.Info) {
		r.copyRows(other, false)
		return true
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
