package ast

import (
	"container/heap"
	"fmt"
	"math/bits"

	"repro/internal/val"
)

// Facts are data (docs/ARCHITECTURE.md, "Facts are data"). A ground,
// bodiless statement is an element of the fixed input I of T_P(J, I)
// (§3, §6.3), not something to evaluate, so a program holds it as a row
// of values in its predicate's FactRows buffer rather than as a Rule.
// The buffers keep enough to give every fact back as a rule on demand
// (AsRules, SplitFacts) and to print the program exactly as if they had
// been rules (AppendText).

// Pos is a position in a program's source text: 1-based line and column.
type Pos struct{ Line, Col int32 }

// FactTag places one fact row in its program. Seq is the row's index
// among all the program's facts and Rule the number of rules
// (Program.Rules) before it, so Seq+Rule is its statement ordinal — its
// index among the program's rules and facts in source order. Pos is
// where the fact's predicate name starts.
type FactTag struct {
	Seq, Rule int32
	Pos
}

// FactRows holds the ground facts of one predicate as rows of values.
type FactRows struct {
	Key   PredKey
	Pred  string
	Arity int
	// chunks hold the rows in source order: chunk 0 holds the first
	// 1<<firstRowBits rows and chunk c ≥ 1 the next 1<<(firstRowBits+c-1),
	// so the buffer grows without ever copying a row it holds.
	chunks []factChunk
	n      int
}

// factChunk is one chunk of a FactRows: its rows' arguments as written,
// Arity per row, a cost predicate's cost last; and each row's tag.
type factChunk struct {
	vals []val.T
	tags []FactTag
}

const firstRowBits = 3

// locateRow maps row i to its chunk and its offset in the chunk.
func locateRow(i int) (c, off int) {
	c = bits.Len(uint(i) >> firstRowBits)
	if c == 0 {
		return 0, i
	}
	return c, i - 1<<(firstRowBits+c-1)
}

// Len returns the number of rows.
func (f *FactRows) Len() int { return f.n }

// Row returns row i's arguments, cost last. The slice aliases the
// buffer.
func (f *FactRows) Row(i int) []val.T {
	c, off := locateRow(i)
	lo, hi := off*f.Arity, (off+1)*f.Arity
	return f.chunks[c].vals[lo:hi:hi]
}

// Tag returns where row i stands in its program.
func (f *FactRows) Tag(i int) FactTag {
	c, off := locateRow(i)
	return f.chunks[c].tags[off]
}

// appendRow adds a row tagged tag and returns its arguments to fill in.
func (f *FactRows) appendRow(tag FactTag) []val.T {
	c, off := locateRow(f.n)
	if c == len(f.chunks) {
		size := 1 << firstRowBits
		if c > 0 {
			size = 1 << (firstRowBits + c - 1)
		}
		f.chunks = append(f.chunks, factChunk{vals: make([]val.T, size*f.Arity), tags: make([]FactTag, size)})
	}
	ch := &f.chunks[c]
	ch.tags[off] = tag
	f.n++
	lo, hi := off*f.Arity, (off+1)*f.Arity
	return ch.vals[lo:hi:hi]
}

// Rule returns row i as the bodiless rule it was written as.
func (f *FactRows) Rule(i int) *Rule {
	r := &Rule{Head: Atom{Pred: f.Pred, key: f.Key}}
	if f.Arity > 0 {
		r.Head.Args = make([]Term, f.Arity)
		for j, v := range f.Row(i) {
			r.Head.Args[j] = Const{V: v}
		}
	}
	return r
}

// Value returns row i as a tuple: its non-cost arguments (aliasing the
// buffer) and, for a cost predicate, its cost parsed into the lattice.
func (f *FactRows) Value(i int, pi *PredInfo) (args []val.T, cost val.T, err error) {
	args = f.Row(i)
	if !pi.HasCost {
		return args, val.T{}, nil
	}
	n := len(args) - 1
	if cost, err = pi.L.Parse(args[n]); err != nil {
		return nil, val.T{}, fmt.Errorf("ast: fact %s: %v", &f.Rule(i).Head, err)
	}
	return args[:n], cost, nil
}

// appendText appends row i's concrete syntax — the bytes Rule(i).String
// returns — to dst.
func (f *FactRows) appendText(dst []byte, i int) []byte {
	dst = append(dst, f.Pred...)
	if f.Arity > 0 {
		dst = append(dst, '(')
		for j, v := range f.Row(i) {
			if j > 0 {
				dst = append(dst, ", "...)
			}
			dst = val.AppendString(dst, v)
		}
		dst = append(dst, ')')
	}
	return append(dst, '.')
}

// factPred identifies a fact buffer without building its key.
type factPred struct {
	pred  string
	arity int
}

// AddFact appends the ground fact pred(args...) to the program as the
// statement following every rule and fact it holds so far: one row of
// pred's buffer, tagged with its ordinal and pos. args are copied.
func (p *Program) AddFact(pred string, args []val.T, pos Pos) {
	copy(p.AppendFact(pred, len(args), pos), args)
}

// AppendFact is AddFact for a caller that fills the row in itself: it
// appends a row of arity arguments to pred's buffer and returns them,
// all zero, to be written before the program is read.
func (p *Program) AppendFact(pred string, arity int, pos Pos) []val.T {
	f := p.lastFact
	if f == nil || f.Pred != pred || f.Arity != arity {
		f = p.factBuf(pred, arity)
		p.lastFact = f
	}
	row := f.appendRow(FactTag{Seq: p.nfacts, Rule: int32(len(p.Rules)), Pos: pos})
	p.nfacts++
	return row
}

// factBuf returns the fact buffer of pred/arity, adding it after the
// others if it is new.
func (p *Program) factBuf(pred string, arity int) *FactRows {
	fp := factPred{pred, arity}
	f := p.factBufs[fp]
	if f == nil {
		if p.factBufs == nil {
			p.factBufs = map[factPred]*FactRows{}
		}
		f = &FactRows{Key: MakePredKey(pred, arity), Pred: pred, Arity: arity}
		p.factBufs[fp] = f
		p.Facts = append(p.Facts, f)
	}
	return f
}

// KeyAtom resolves a's predicate key once per predicate of the program:
// every atom of one predicate shares one key string, so Key builds none
// however often the analyses and the compiler ask. The parser keys every
// atom it reads.
func (p *Program) KeyAtom(a *Atom) {
	fp := factPred{a.Pred, len(a.Args)}
	k, ok := p.keys[fp]
	if !ok {
		if p.keys == nil {
			p.keys = map[factPred]PredKey{}
		}
		k = MakePredKey(a.Pred, len(a.Args))
		p.keys[fp] = k
	}
	a.key = k
}

// AsRules returns the program with its fact rows handed back as bodiless
// rules at their statement ordinals — every statement a Rule, as the
// evaluators that work on the syntax (wfs, stable, rewrite) take a
// program. A program without fact rows is returned as it is.
func (p *Program) AsRules() *Program {
	if len(p.Facts) == 0 {
		return p
	}
	return &Program{
		Rules:       p.mergeFacts(p.Facts),
		Constraints: p.Constraints,
		CostDecls:   p.CostDecls,
		DefaultDecl: p.DefaultDecl,
	}
}

// SplitFacts separates the program's data from its rules. edb are the
// fact buffers of predicates no rule heads: the pure EDB, which no
// analysis of Definitions 2.5, 2.10 or 4.5 has anything to say about.
// rules are Rules with the rows of every other buffer handed back as
// bodiless rules at their statement ordinals, since Definition 2.10
// compares those facts against the rules of their predicate. The cost is
// a function of the rules and of the rule-headed facts, not of the EDB.
func (p *Program) SplitFacts() (rules []*Rule, edb []*FactRows) {
	if len(p.Facts) == 0 {
		return p.Rules, nil
	}
	heads := map[PredKey]bool{}
	var memo KeyMemo
	for _, r := range p.Rules {
		heads[memo.Of(&r.Head)] = true
	}
	var headed []*FactRows
	for _, f := range p.Facts {
		if heads[f.Key] {
			headed = append(headed, f)
		} else {
			edb = append(edb, f)
		}
	}
	if len(headed) == 0 {
		return p.Rules, edb
	}
	return p.mergeFacts(headed), edb
}

// mergeFacts returns Rules with the rows of bufs interleaved as rules.
func (p *Program) mergeFacts(bufs []*FactRows) []*Rule {
	n := len(p.Rules)
	for _, f := range bufs {
		n += f.Len()
	}
	out := make([]*Rule, 0, n)
	p.eachStatement(bufs, func(r *Rule) { out = append(out, r) },
		func(f *FactRows, i int) { out = append(out, f.Rule(i)) })
	return out
}

// eachStatement calls rule for each of the program's rules and fact for
// each row of bufs, in source order.
func (p *Program) eachStatement(bufs []*FactRows, rule func(*Rule), fact func(f *FactRows, i int)) {
	h := make(cursors, 0, len(bufs))
	for _, f := range bufs {
		if f.Len() > 0 {
			h = append(h, cursor{f: f})
		}
	}
	heap.Init(&h)
	for ri := 0; ri <= len(p.Rules); ri++ {
		for len(h) > 0 && (int(h[0].tag().Rule) <= ri || ri == len(p.Rules)) {
			c := &h[0]
			fact(c.f, c.i)
			if c.i++; c.i < c.f.Len() {
				heap.Fix(&h, 0)
			} else {
				heap.Pop(&h)
			}
		}
		if ri < len(p.Rules) {
			rule(p.Rules[ri])
		}
	}
}

// cursor is the next unvisited row of one fact buffer; cursors is a heap
// of them ordered by that row's Seq.
type cursor struct {
	f *FactRows
	i int
}

func (c cursor) tag() FactTag { return c.f.Tag(c.i) }

type cursors []cursor

func (h cursors) Len() int           { return len(h) }
func (h cursors) Less(a, b int) bool { return h[a].tag().Seq < h[b].tag().Seq }
func (h cursors) Swap(a, b int)      { h[a], h[b] = h[b], h[a] }
func (h *cursors) Push(x any)        { *h = append(*h, x.(cursor)) }
func (h *cursors) Pop() any {
	old := *h
	c := old[len(old)-1]
	*h = old[:len(old)-1]
	return c
}
