// Package ast defines the abstract syntax of the rule language of Ross &
// Sagiv (PODS 1992): rules over atoms with optional cost arguments,
// aggregate subgoals in both the total "=" and restricted "?=" (the
// paper's "=r") forms, built-in arithmetic subgoals, negation, integrity
// constraints (Definition 2.9) and the declarations of §2.3 (cost
// predicates, default values).
package ast

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/val"
)

// Term is either a variable or a constant.
type Term interface {
	isTerm()
	String() string
}

// Var is a variable (written with a leading upper-case letter or '_').
type Var string

func (Var) isTerm()          {}
func (v Var) String() string { return string(v) }

// Const is a constant term wrapping a runtime value.
type Const struct{ V val.T }

func (Const) isTerm()          {}
func (c Const) String() string { return c.V.String() }

// Sym, Num and BoolConst are convenience constructors.
func Sym(s string) Const     { return Const{val.Symbol(s)} }
func Num(n float64) Const    { return Const{val.Number(n)} }
func BoolConst(b bool) Const { return Const{val.Boolean(b)} }

// PredKey identifies a predicate by name and arity, e.g. "path/4".
type PredKey string

// MakePredKey builds the key for name with the given arity.
func MakePredKey(name string, arity int) PredKey {
	return PredKey(name + "/" + strconv.Itoa(arity))
}

// Name returns the predicate name portion of the key.
func (k PredKey) Name() string {
	s := string(k)
	if i := strings.LastIndexByte(s, '/'); i >= 0 {
		return s[:i]
	}
	return s
}

// Arity returns the arity portion of the key (0 for a malformed key).
func (k PredKey) Arity() int {
	s := string(k)
	n, _ := strconv.Atoi(s[strings.LastIndexByte(s, '/')+1:])
	return n
}

// Atom is a (possibly non-ground) atomic formula.
type Atom struct {
	Pred string
	Args []Term
	// key is the atom's predicate key when the parser resolved it
	// (Program.KeyAtom): every atom of one predicate then shares one
	// string, and Key builds none.
	key PredKey
}

// Key returns the predicate key of the atom.
func (a *Atom) Key() PredKey {
	if a.key != "" {
		return a.key
	}
	return MakePredKey(a.Pred, len(a.Args))
}

// IsGround reports whether the atom contains no variables.
func (a *Atom) IsGround() bool {
	for _, t := range a.Args {
		if _, isVar := t.(Var); isVar {
			return false
		}
	}
	return true
}

// Vars appends the variables of the atom to dst, in argument order with
// duplicates retained.
func (a *Atom) Vars(dst []Var) []Var {
	for _, t := range a.Args {
		if v, ok := t.(Var); ok {
			dst = append(dst, v)
		}
	}
	return dst
}

func (a *Atom) String() string {
	if len(a.Args) == 0 {
		return a.Pred
	}
	var buf [64]byte
	return string(a.appendText(buf[:0]))
}

// appendText appends the atom's concrete syntax (String's bytes) to dst.
func (a *Atom) appendText(dst []byte) []byte {
	dst = append(dst, a.Pred...)
	if len(a.Args) == 0 {
		return dst
	}
	dst = append(dst, '(')
	for i, t := range a.Args {
		if i > 0 {
			dst = append(dst, ", "...)
		}
		switch t := t.(type) {
		case Const:
			dst = val.AppendString(dst, t.V)
		default:
			dst = append(dst, t.String()...)
		}
	}
	return append(dst, ')')
}

// Subgoal is one conjunct of a rule body.
type Subgoal interface {
	isSubgoal()
	String() string
	// FreeVars appends every variable occurring in the subgoal
	// (including local and multiset variables of aggregates).
	FreeVars(dst []Var) []Var
}

// Lit is a positive or negative literal.
type Lit struct {
	Atom Atom
	Neg  bool
}

func (*Lit) isSubgoal() {}

func (l *Lit) FreeVars(dst []Var) []Var { return l.Atom.Vars(dst) }

func (l *Lit) String() string {
	if !l.Neg {
		return l.Atom.String()
	}
	var buf [64]byte
	return string(appendSubgoal(buf[:0], l))
}

// Agg is an aggregate subgoal (Definition 2.4):
//
//	C  = F E : [p1(...), ..., pk(...)]   (total form)
//	C ?= F E : [p1(...), ..., pk(...)]   (restricted form, the paper's =r:
//	                                      false on the empty multiset)
//
// MultisetVar is empty for aggregates applied to implicit boolean cost
// arguments, as in "N = count : q(X)".
type Agg struct {
	Result      Var
	Restricted  bool
	Func        string
	MultisetVar Var // "" when the cost argument is implicit
	Conj        []Atom
}

func (*Agg) isSubgoal() {}

func (g *Agg) FreeVars(dst []Var) []Var {
	dst = append(dst, g.Result)
	for i := range g.Conj {
		dst = g.Conj[i].Vars(dst)
	}
	return dst
}

// InnerVars appends the variables occurring inside the aggregation (the
// conjunction), excluding the multiset variable.
func (g *Agg) InnerVars(dst []Var) []Var {
	for i := range g.Conj {
		for _, t := range g.Conj[i].Args {
			if v, ok := t.(Var); ok && v != g.MultisetVar {
				dst = append(dst, v)
			}
		}
	}
	return dst
}

func (g *Agg) String() string {
	var buf [64]byte
	return string(g.appendText(buf[:0]))
}

// appendText appends the aggregate's concrete syntax (String's bytes) to
// dst.
func (g *Agg) appendText(dst []byte) []byte {
	dst = append(dst, g.Result...)
	if g.Restricted {
		dst = append(dst, " ?= "...)
	} else {
		dst = append(dst, " = "...)
	}
	dst = append(dst, g.Func...)
	if g.MultisetVar != "" {
		dst = append(dst, ' ')
		dst = append(dst, g.MultisetVar...)
	}
	dst = append(dst, " : "...)
	if len(g.Conj) == 1 {
		return g.Conj[0].appendText(dst)
	}
	dst = append(dst, '[')
	for i := range g.Conj {
		if i > 0 {
			dst = append(dst, ", "...)
		}
		dst = g.Conj[i].appendText(dst)
	}
	return append(dst, ']')
}

// CmpOp is a comparison operator of a built-in subgoal.
type CmpOp int

// The comparison operators.
const (
	OpEq CmpOp = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
)

func (op CmpOp) String() string {
	switch op {
	case OpEq:
		return "="
	case OpNe:
		return "!="
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	}
	return "?"
}

// Builtin is a built-in comparison subgoal over arithmetic expressions,
// e.g. "C = C1 + C2" or "N > 0.5" (§2.2: built-in predicates are equalities
// and comparisons involving arithmetic expressions).
type Builtin struct {
	Op   CmpOp
	L, R Expr
}

func (*Builtin) isSubgoal() {}

func (b *Builtin) FreeVars(dst []Var) []Var {
	dst = b.L.Vars(dst)
	return b.R.Vars(dst)
}

func (b *Builtin) String() string {
	var buf [64]byte
	return string(b.appendText(buf[:0]))
}

// appendText appends the built-in's concrete syntax (String's bytes) to
// dst.
func (b *Builtin) appendText(dst []byte) []byte {
	dst = appendExpr(dst, b.L)
	dst = append(dst, ' ')
	dst = append(dst, b.Op.String()...)
	dst = append(dst, ' ')
	return appendExpr(dst, b.R)
}

// appendSubgoal appends s's concrete syntax (its String's bytes) to dst.
func appendSubgoal(dst []byte, s Subgoal) []byte {
	switch s := s.(type) {
	case *Lit:
		if s.Neg {
			dst = append(dst, "not "...)
		}
		return s.Atom.appendText(dst)
	case *Agg:
		return s.appendText(dst)
	case *Builtin:
		return s.appendText(dst)
	}
	return append(dst, s.String()...)
}

// Rule is "Head :- Body." A fact is a rule with an empty body.
type Rule struct {
	Head Atom
	Body []Subgoal
}

// IsFact reports whether the rule has an empty body.
func (r *Rule) IsFact() bool { return len(r.Body) == 0 }

// IsGroundFact reports whether the rule is a ground atom with an empty
// body: a piece of data rather than something to evaluate.
func (r *Rule) IsGroundFact() bool { return len(r.Body) == 0 && r.Head.IsGround() }

// AllVars returns the distinct variables of the rule in first-occurrence
// order.
func (r *Rule) AllVars() []Var {
	var vs []Var
	vs = r.Head.Vars(vs)
	for _, s := range r.Body {
		vs = s.FreeVars(vs)
	}
	seen := map[Var]bool{}
	out := vs[:0]
	for _, v := range vs {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

func (r *Rule) String() string {
	var buf [96]byte
	return string(r.appendText(buf[:0]))
}

// appendText appends the rule's concrete syntax (String's bytes) to dst.
func (r *Rule) appendText(dst []byte) []byte {
	dst = r.Head.appendText(dst)
	for i, s := range r.Body {
		if i == 0 {
			dst = append(dst, " :- "...)
		} else {
			dst = append(dst, ", "...)
		}
		dst = appendSubgoal(dst, s)
	}
	return append(dst, '.')
}

// Constraint is an integrity constraint (Definition 2.9): a headless
// conjunction guaranteed unsatisfiable by the application.
type Constraint struct {
	Body []Subgoal
}

func (c *Constraint) String() string {
	parts := make([]string, len(c.Body))
	for i, s := range c.Body {
		parts[i] = s.String()
	}
	return ":- " + strings.Join(parts, ", ") + "."
}

// CostDecl declares the cost domain of a cost predicate's final argument:
// ".cost p/3 : minreal."
type CostDecl struct {
	Pred    PredKey
	Lattice string
}

// DefaultDecl declares a default-value cost predicate (§2.3.2):
// ".default t/2 = 0." The value must parse to the lattice bottom.
type DefaultDecl struct {
	Pred  PredKey
	Value val.T
}

// Program is a parsed program: rules, ground facts as data,
// declarations and integrity constraints.
type Program struct {
	// Rules are the program's statements that are not ground facts.
	Rules []*Rule
	// Facts are its ground, bodiless statements as data: one buffer per
	// predicate, in first-occurrence order (see AddFact). AsRules hands
	// them back as rules.
	Facts       []*FactRows
	Constraints []*Constraint
	CostDecls   []CostDecl
	DefaultDecl []DefaultDecl

	nfacts   int32 // rows across Facts: the next row's Seq
	factBufs map[factPred]*FactRows
	lastFact *FactRows
	keys     map[factPred]PredKey // KeyAtom's keys
}

// KeyMemo resolves atoms to predicate keys, remembering the last answer:
// a run of facts of one predicate — how extensional data is written —
// then costs a string comparison per atom instead of building a key.
// Consecutive atoms of one predicate get the identical key back, so a
// caller can tell a change of predicate by comparing with the previous
// result.
type KeyMemo struct {
	pred  string
	arity int
	key   PredKey
}

// Of returns a's predicate key.
func (m *KeyMemo) Of(a *Atom) PredKey {
	if m.key == "" || a.Pred != m.pred || len(a.Args) != m.arity {
		m.pred, m.arity, m.key = a.Pred, len(a.Args), a.Key()
	}
	return m.key
}

// Preds returns the set of predicate keys appearing anywhere in the
// program, sorted for determinism.
func (p *Program) Preds() []PredKey {
	set := map[PredKey]bool{}
	var memo KeyMemo
	last := PredKey("")
	add := func(a *Atom) {
		if k := memo.Of(a); k != last {
			last = k
			set[k] = true
		}
	}
	walkAtoms(p, add)
	for _, f := range p.Facts {
		set[f.Key] = true
	}
	out := make([]PredKey, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// HeadPreds returns the predicates defined by some rule head or fact.
func (p *Program) HeadPreds() map[PredKey]bool {
	out := map[PredKey]bool{}
	for _, r := range p.Rules {
		out[r.Head.Key()] = true
	}
	for _, f := range p.Facts {
		out[f.Key] = true
	}
	return out
}

// walkAtoms applies f to every atom of the program.
func walkAtoms(p *Program, f func(*Atom)) {
	visitBody := func(body []Subgoal) {
		for _, s := range body {
			switch s := s.(type) {
			case *Lit:
				f(&s.Atom)
			case *Agg:
				for i := range s.Conj {
					f(&s.Conj[i])
				}
			}
		}
	}
	for _, r := range p.Rules {
		f(&r.Head)
		visitBody(r.Body)
	}
	for _, c := range p.Constraints {
		visitBody(c.Body)
	}
}

func (p *Program) String() string { return string(p.AppendText(nil)) }

// AppendText appends the program's canonical printing (String's bytes)
// to dst: declarations, constraints, then rules and facts one per line
// in source order. Fact rows render straight from their values into the
// one buffer, so the printing is byte-identical to that of the same
// facts held as rules.
func (p *Program) AppendText(dst []byte) []byte {
	for _, d := range p.CostDecls {
		dst = fmt.Appendf(dst, ".cost %s : %s.\n", d.Pred, d.Lattice)
	}
	for _, d := range p.DefaultDecl {
		dst = fmt.Appendf(dst, ".default %s = %s.\n", d.Pred, d.Value)
	}
	for _, c := range p.Constraints {
		dst = append(dst, c.String()...)
		dst = append(dst, '\n')
	}
	p.eachStatement(p.Facts, func(r *Rule) {
		dst = r.appendText(dst)
		dst = append(dst, '\n')
	}, func(f *FactRows, i int) {
		dst = f.appendText(dst, i)
		dst = append(dst, '\n')
	})
	return dst
}
