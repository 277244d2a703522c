package val

import (
	"hash/maphash"
	"math/bits"
	"strings"
	"sync"
	"sync/atomic"
)

// The intern tables give every symbol, string and set a small integer id,
// the payload a T's word carries in place of a pointer. They are process-wide
// rather than per engine because String, Compare and Key are called from
// packages that never see an engine; ids are therefore meaningful only
// inside one process and never reach disk or the wire (the snapshot, WAL
// and JSON codecs all write text).
//
// Both tables are append-only: an id, once handed out, names its entry
// for the life of the process. Resolving an id is a lock-free read of a
// chunk that never moves; adding an entry takes a mutex. Lookup and
// LookupSet answer without adding, which is how the read paths (queries,
// Match) keep the tables from growing with the names clients ask about.

// chunked is an append-only array whose elements never move: chunk 0
// holds 1<<firstBits elements and chunk c ≥ 1 the next 1<<(firstBits+c-1),
// each published by an atomic pointer once allocated.
type chunked[E any] struct {
	chunks [maxChunks]atomic.Pointer[[]E]
	n      uint64 // entries in use; written under the owning table's mutex
}

const (
	firstBits = 8
	maxChunks = 40
)

// locate maps element i to its chunk and offset.
func locate(i uint64) (c int, off uint64) {
	c = bits.Len64(i >> firstBits)
	if c == 0 {
		return 0, i
	}
	return c, i - 1<<(firstBits+c-1)
}

// at returns element i, which must have been pushed.
func (a *chunked[E]) at(i uint64) E {
	c, off := locate(i)
	return (*a.chunks[c].Load())[off]
}

// push appends e and returns its index; the caller holds the table lock.
func (a *chunked[E]) push(e E) uint64 {
	i := a.n
	c, off := locate(i)
	if off == 0 {
		size := 1 << firstBits
		if c > 0 {
			size = 1 << (firstBits + c - 1)
		}
		chunk := make([]E, size)
		a.chunks[c].Store(&chunk)
	}
	(*a.chunks[c].Load())[off] = e
	a.n++
	return i
}

// table interns entries of type E under string keys.
type table[E any] struct {
	mu   sync.RWMutex
	ids  map[string]uint64
	vals chunked[E]
}

func newTable[E any]() *table[E] {
	return &table[E]{ids: map[string]uint64{}}
}

// lookup returns the id of key without adding it.
func (t *table[E]) lookup(key string) (uint64, bool) {
	t.mu.RLock()
	id, ok := t.ids[key]
	t.mu.RUnlock()
	return id, ok
}

// intern returns the id of key, adding the entry build makes (from the
// table's own copy of key) when key is new.
func (t *table[E]) intern(key string, build func(key string, id uint64) E) uint64 {
	if id, ok := t.lookup(key); ok {
		return id
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if id, ok := t.ids[key]; ok {
		return id
	}
	// Clone: key may alias a larger buffer (a parsed source text, a decoded
	// snapshot) that the table must not keep alive.
	key = strings.Clone(key)
	id := t.vals.n
	if id >= maxID {
		// Unreachable: chunked's 40 chunks hold maxID entries. An id at
		// or above it would reach T's tag bits.
		panic("val: intern table full")
	}
	t.vals.push(build(key, id))
	t.ids[key] = id
	return id
}

func (t *table[E]) size() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return int(t.vals.n)
}

// texts interns symbol and string text; id 0 is "", so the zero T is the
// empty symbol.
var texts = func() *table[string] {
	t := newTable[string]()
	t.intern("", func(s string, _ uint64) string { return s })
	return t
}()

// sets hash-conses sets by their elements' words (NewSet); id 0 is the
// empty set (see EmptySet), so a zero-payload SetKind value is ∅.
var sets = newTable[*Set]()

// textCache answers internText for a text met before without the
// table's lock: slot h holds 1 + the id of the last text interned whose
// hash picks slot h, or 0. A slot is one word, so goroutines share the
// cache through atomics alone; a text that finds another in its slot
// takes the lock as before. 4,096 slots are ten times the distinct texts
// of the largest benchmark input (385 on sp_dag), where 95–99 % of
// lookups find their text in the cache.
var (
	textCache [1 << 12]atomic.Uint64
	textSeed  = maphash.MakeSeed()
)

func internText(s string) uint64 {
	slot := &textCache[maphash.String(textSeed, s)%uint64(len(textCache))]
	if id := slot.Load(); id != 0 && texts.vals.at(id-1) == s {
		return id - 1
	}
	id := texts.intern(s, func(s string, _ uint64) string { return s })
	slot.Store(id + 1)
	return id
}

// internBytes is internText for a text in a byte slice, which it does
// not retain: a text interned before costs no allocation, through the
// cache or the table, so decoders need not make a string per occurrence.
func internBytes(b []byte) uint64 {
	slot := &textCache[maphash.Bytes(textSeed, b)%uint64(len(textCache))]
	if id := slot.Load(); id != 0 && texts.vals.at(id-1) == string(b) {
		return id - 1
	}
	texts.mu.RLock()
	id, ok := texts.ids[string(b)]
	texts.mu.RUnlock()
	if !ok {
		id = texts.intern(string(b), func(s string, _ uint64) string { return s })
	}
	slot.Store(id + 1)
	return id
}

// Lookup returns the Sym or Str value with text s if s has been interned,
// without interning it: a constant no value was ever built from cannot be
// stored anywhere, so read paths resolve names this way and a miss
// matches nothing.
func Lookup(k Kind, s string) (T, bool) {
	id, ok := texts.lookup(s)
	if k == Str {
		return T{strTag | id}, ok
	}
	return T{id}, ok
}

// LookupSet returns the set value with the given elements if that set
// has been built, without interning it (see Lookup).
func LookupSet(elems []T) (T, bool) {
	id, ok := sets.lookup(string(AppendWordKey(nil, byWord(elems))))
	return T{setTag | id}, ok
}

// Interned reports the sizes of the intern tables: distinct texts
// (symbols and strings) and distinct sets.
func Interned() (nText, nSet int) {
	return texts.size(), sets.size()
}
