package datalog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strconv"

	"repro/internal/ast"
	"repro/internal/lattice"
	"repro/internal/relation"
	"repro/internal/snapshot"
	"repro/internal/val"
)

// Batch is extensional facts on their way into one solve, held as the
// rows they will be stored as: each fact is checked and its values are
// interned as it is added. It is the one way caller facts enter the
// engine — Solve and SolveMore fill one from their facts, and a log of
// facts encoded by AppendFacts is read into one by AddEncoded — so every
// fact meets the same checks:
//
//   - its predicate is one of the program's, at the program's arity (the
//     cost argument included);
//   - no argument, the cost included, is NaN or a set holding one, which
//     no snapshot of the model could restore;
//   - a cost predicate's cost (its last argument) lies in its lattice.
//
// Facts that repeat a tuple join their costs. A Batch is solved once:
// Resume takes it over, and adding to it afterwards fails.
type Batch struct {
	p  *Program
	db *relation.DB
	n  int
	// key and row are one fact's predicate key and values (cost last),
	// reused from fact to fact: a relation copies a new row into its
	// arena. pi and rel are the last fact's predicate, so a run of facts
	// of one predicate finds its relation once.
	key []byte
	row []val.T
	pi  *ast.PredInfo
	rel *relation.Relation
}

// errBatchTaken refuses a batch that a solve has taken over, and
// errBatchProgram one solved by a program it was not made for.
var (
	errBatchTaken   = errors.New("datalog: batch already solved")
	errBatchProgram = errors.New("datalog: batch of another program")
)

// NewBatch returns an empty batch of facts for p.
func (p *Program) NewBatch() *Batch {
	return &Batch{p: p, db: relation.NewDB(p.en.Schemas)}
}

// Len returns the number of facts added.
func (b *Batch) Len() int { return b.n }

// Add checks and stores facts in order; it stops at the first fact that
// fails a check, keeping the ones before it.
func (b *Batch) Add(facts ...Fact) error {
	for _, f := range facts {
		b.key = append(b.key[:0], f.Pred...)
		b.row = b.row[:0]
		for _, a := range f.Args {
			v, _ := a.resolve(true)
			b.row = append(b.row, v)
		}
		if err := b.store(); err != nil {
			return err
		}
	}
	return nil
}

// AppendFacts appends to dst the binary encoding of facts that
// AddEncoded reads: the number of facts, then for each its predicate's
// name and arity (cost argument included) and its values in the
// snapshot value encoding (snapshot.AppendVal). Values are interned as
// they are encoded.
func AppendFacts(dst []byte, facts []Fact) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(facts)))
	for _, f := range facts {
		dst = snapshot.AppendText(dst, f.Pred)
		dst = binary.AppendUvarint(dst, uint64(len(f.Args)))
		for _, a := range f.Args {
			v, _ := a.resolve(true)
			dst = snapshot.AppendVal(dst, v)
		}
	}
	return dst
}

// AddEncoded decodes facts written by AppendFacts straight into the
// batch's rows, checking each as Add does. A text already interned is
// not copied. Bytes that do not decode fail with ErrSnapshotCorrupt;
// the facts decoded before a failure stay added.
func (b *Batch) AddEncoded(data []byte) error {
	d := snapshot.NewDecoder(data)
	n, err := d.Count("facts")
	if err != nil {
		return err
	}
	for i := range n {
		name, err := d.Text("predicate")
		if err != nil {
			return err
		}
		arity, err := d.Count("arity")
		if err != nil {
			return err
		}
		b.key = append(b.key[:0], name...)
		b.row = b.row[:0]
		for range arity {
			v, err := d.Val()
			if err != nil {
				return err
			}
			b.row = append(b.row, v)
		}
		if err := b.store(); err != nil {
			return fmt.Errorf("fact %d: %w", i, err)
		}
	}
	if d.Len() != 0 {
		return fmt.Errorf("%w: %d trailing bytes", snapshot.ErrCorrupt, d.Len())
	}
	return nil
}

// store checks the fact whose predicate name is in b.key and whose
// values are in b.row, and inserts it.
func (b *Batch) store() error {
	if b.db == nil {
		return errBatchTaken
	}
	name := len(b.key)
	b.key = strconv.AppendInt(append(b.key, '/'), int64(len(b.row)), 10)
	if b.pi == nil || string(b.pi.Key) != string(b.key) {
		pi := b.db.Schemas[ast.PredKey(b.key)]
		if pi == nil {
			return b.p.unknownFact(string(b.key[:name]), len(b.row))
		}
		b.pi, b.rel = pi, b.db.Rel(pi.Key)
	}
	for i, a := range b.row {
		if hasNaN(a) {
			return fmt.Errorf("datalog: fact %s: argument %d is NaN", b.key[:name], i+1)
		}
	}
	args, cost := b.row, lattice.Elem{}
	if b.pi.HasCost {
		args = b.row[:len(b.row)-1]
		var err error
		if cost, err = b.pi.L.Parse(b.row[len(args)]); err != nil {
			return fmt.Errorf("datalog: fact %s: %v", b.key[:name], err)
		}
	}
	b.rel.InsertJoin(args, cost)
	b.n++
	return nil
}

// take hands the batch's rows to a solve of p; the batch then refuses
// further facts, since the solve may keep its relations.
func (b *Batch) take(p *Program) (*relation.DB, error) {
	if b.p != p {
		return nil, errBatchProgram
	}
	if b.db == nil {
		return nil, errBatchTaken
	}
	db := b.db
	b.db, b.pi, b.rel = nil, nil, nil
	return db, nil
}

// unknownFact explains why the program has no predicate pred/arity: it
// has none named pred, or pred takes another number of arguments (the
// fewest it takes is named). The texts are the serve tier's.
func (p *Program) unknownFact(pred string, arity int) error {
	want := -1
	for k, pi := range p.en.Schemas {
		if k.Name() == pred && (want < 0 || pi.Arity < want) {
			want = pi.Arity
		}
	}
	if want < 0 {
		return fmt.Errorf("datalog: program has no predicate %q", pred)
	}
	return fmt.Errorf("datalog: %s takes %d arguments (cost last for cost predicates), got %d", pred, want, arity)
}

// hasNaN reports whether v is a NaN number or a set holding one.
func hasNaN(v val.T) bool {
	switch v.Kind() {
	case val.Num:
		return math.IsNaN(v.Num())
	case val.SetKind:
		for _, e := range v.Set().Elems() {
			if hasNaN(e) {
				return true
			}
		}
	}
	return false
}
