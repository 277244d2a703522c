package parser

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"sync/atomic"

	"repro/internal/ast"
	"repro/internal/lattice"
	"repro/internal/val"
)

// Parse parses a complete program. Ground facts go straight to their
// predicate's row buffer (ast.Program.AppendFact): no Atom or Rule is built
// for them, and the fact fast path (facts.go) reads most of them from
// the bytes without lexing a token.
func Parse(src string) (*ast.Program, error) { return parse(src, true) }

// parse is Parse with the fact fast path on or off; the two read every
// text alike (FuzzFactFastPath).
func parse(src string, fast bool) (*ast.Program, error) {
	p := spare.Swap(nil)
	if p == nil {
		p = new(parser)
	}
	defer p.release()
	prog := &ast.Program{}
	p.lx, p.prog = newLexer(src), prog
	for {
		if fast && p.fastFact() {
			continue
		}
		if len(p.toks) == 0 {
			p.lexTo(0)
		}
		if p.at(tokEOF) {
			return prog, nil
		}
		if err := p.statement(prog); err != nil {
			return nil, p.fail(err)
		}
		// The statement's tokens are spent; keep any lookahead.
		p.toks = p.toks[:copy(p.toks, p.toks[p.pos:])]
		p.pos = 0
	}
}

// spare is the parser the last parse released, with its buffers, for
// the next parse to take: a parse allocates for its program and little
// else. A parse that finds none — the first, or one running beside
// another — makes a parser of its own. Unlike a sync.Pool, the spare
// survives garbage collection, so a parse's allocations do not depend
// on when the collector last ran.
var spare atomic.Pointer[parser]

// release forgets the parse p read — nothing of its text or its program
// stays reachable from p's buffers — and makes p the spare.
func (p *parser) release() {
	p.toks, p.vals, p.vars = reuse(p.toks), reuse(p.vals), reuse(p.vars)
	p.terms, p.goals = reuse(p.terms), reuse(p.goals)
	p.lx, p.lexErr, p.pos, p.prog = lexer{}, nil, 0, nil
	spare.Store(p)
}

// reuse empties a buffer for the next parse: cleared, so that nothing it
// held stays reachable, or dropped if one long statement grew it past
// 1,024 elements, which the spare would otherwise keep for good.
func reuse[E any](s []E) []E {
	if cap(s) > 1024 {
		return nil
	}
	clear(s[:cap(s)])
	return s[:0]
}

// fail reports a failed parse. A lexical error anywhere in the text
// wins over a syntax error, as if the whole text had been lexed first.
func (p *parser) fail(err error) error {
	for p.lexErr == nil {
		if t, lerr := p.lx.next(); lerr != nil {
			p.lexErr = lerr
		} else if t.kind == tokEOF {
			break
		}
	}
	if p.lexErr != nil {
		err = p.lexErr
	}
	return fmt.Errorf("parser: %v", err)
}

// ParseRule parses a single rule or fact (without the trailing newline
// requirements of a full program).
func ParseRule(src string) (*ast.Rule, error) {
	prog, err := Parse(src)
	if err != nil {
		return nil, err
	}
	rules := prog.AsRules().Rules
	if len(rules) != 1 || len(prog.Constraints) != 0 ||
		len(prog.CostDecls) != 0 || len(prog.DefaultDecl) != 0 {
		return nil, fmt.Errorf("parser: expected exactly one rule")
	}
	return rules[0], nil
}

// parser is a recursive-descent parser over tokens lexed on demand. toks
// holds the current statement's tokens lexed so far (plus lookahead), so
// tryAggregate can backtrack within a statement by resetting pos. Inside
// a statement the current token is always lexed: pos < len(toks);
// between statements toks is empty after a fact the fast path read.
type parser struct {
	lx     lexer
	lexErr error // the lexer's error; every later token reads as tokErr
	toks   []token
	pos    int
	// vals and vars are the scratch of a statement head's arguments:
	// the constants, and the variable names ("" for a constant).
	vals []val.T
	vars []string
	// terms and goals are the scratch of an atom's arguments and of a
	// body's subgoals, each copied out once at its exact length.
	terms []ast.Term
	goals []ast.Subgoal
	// prog is the program being read, which keys its atoms
	// (ast.Program.KeyAtom).
	prog *ast.Program
}

// peek returns the token k places past the current one. The pointer is
// good until the next token is lexed.
func (p *parser) peek(k int) *token {
	if p.pos+k >= len(p.toks) {
		p.lexTo(p.pos + k)
	}
	return &p.toks[p.pos+k]
}

// lexTo lexes up to toks[i].
func (p *parser) lexTo(i int) {
	for i >= len(p.toks) {
		t := token{kind: tokErr}
		if p.lexErr == nil {
			var err error
			if t, err = p.lx.next(); err != nil {
				p.lexErr = err
				t = token{kind: tokErr}
			}
		}
		p.toks = append(p.toks, t)
	}
}

func (p *parser) cur() *token { return &p.toks[p.pos] }
func (p *parser) next() token { t := p.toks[p.pos]; p.advance(); return t }

// advance moves to the next token, lexing it if need be.
func (p *parser) advance() {
	if p.pos++; p.pos == len(p.toks) {
		p.lexTo(p.pos)
	}
}

func (p *parser) at(k tokKind) bool { return p.toks[p.pos].kind == k }

func (p *parser) accept(k tokKind) bool {
	if p.at(k) {
		p.advance()
		return true
	}
	return false
}

func (p *parser) expect(k tokKind) (token, error) {
	if !p.at(k) {
		return token{}, p.errf("expected %s, found %s", tokNames[k], p.cur())
	}
	return p.next(), nil
}

func (p *parser) errf(format string, args ...any) error {
	t := p.cur()
	return fmt.Errorf("%d:%d: %s", t.line, t.col, fmt.Sprintf(format, args...))
}

func (p *parser) statement(prog *ast.Program) error {
	switch {
	case p.at(tokDirective):
		return p.directive(prog)
	case p.at(tokImplies):
		p.next()
		body, err := p.body()
		if err != nil {
			return err
		}
		if _, err := p.expect(tokDot); err != nil {
			return err
		}
		prog.Constraints = append(prog.Constraints, &ast.Constraint{Body: body})
		return nil
	default:
		return p.ruleOrFact(prog)
	}
}

// ruleOrFact parses a statement with a head. A bodiless statement whose
// head arguments are all constants is a fact: its constants, interned
// once by constant, become one row of the predicate's buffer.
func (p *parser) ruleOrFact(prog *ast.Program) error {
	name, err := p.expect(tokIdent)
	if err != nil {
		return err
	}
	p.vals, p.vars = p.vals[:0], p.vars[:0]
	ground := true
	if p.accept(tokLParen) && !p.accept(tokRParen) {
		for {
			var v val.T
			var x string
			if p.at(tokVar) {
				x, ground = p.next().text, false
			} else if v, err = p.constant(); err != nil {
				return err
			}
			p.vals, p.vars = append(p.vals, v), append(p.vars, x)
			if !p.accept(tokComma) {
				break
			}
		}
		if _, err := p.expect(tokRParen); err != nil {
			return err
		}
	}
	if ground && p.accept(tokDot) {
		prog.AddFact(name.text, p.vals, ast.Pos{Line: name.line, Col: name.col})
		return nil
	}
	r := &ast.Rule{Head: ast.Atom{Pred: name.text}}
	if len(p.vals) > 0 {
		r.Head.Args = make([]ast.Term, len(p.vals))
		for i, v := range p.vals {
			if p.vars[i] != "" {
				r.Head.Args[i] = ast.Var(p.vars[i])
			} else {
				r.Head.Args[i] = ast.Const{V: v}
			}
		}
	}
	p.prog.KeyAtom(&r.Head)
	if p.accept(tokImplies) {
		body, err := p.body()
		if err != nil {
			return err
		}
		r.Body = body
	}
	if _, err := p.expect(tokDot); err != nil {
		return err
	}
	prog.Rules = append(prog.Rules, r)
	return nil
}

func (p *parser) directive(prog *ast.Program) error {
	d := p.next()
	switch d.text {
	case "cost":
		pk, err := p.predSpec()
		if err != nil {
			return err
		}
		if _, err := p.expect(tokColon); err != nil {
			return err
		}
		lat, err := p.expect(tokIdent)
		if err != nil {
			return err
		}
		if _, err := p.expect(tokDot); err != nil {
			return err
		}
		prog.CostDecls = append(prog.CostDecls, ast.CostDecl{Pred: pk, Lattice: lat.text})
		return nil
	case "default":
		pk, err := p.predSpec()
		if err != nil {
			return err
		}
		if _, err := p.expect(tokEq); err != nil {
			return err
		}
		c, err := p.constant()
		if err != nil {
			return err
		}
		if _, err := p.expect(tokDot); err != nil {
			return err
		}
		prog.DefaultDecl = append(prog.DefaultDecl, ast.DefaultDecl{Pred: pk, Value: c})
		return nil
	case "ic":
		if _, err := p.expect(tokImplies); err != nil {
			return err
		}
		body, err := p.body()
		if err != nil {
			return err
		}
		if _, err := p.expect(tokDot); err != nil {
			return err
		}
		prog.Constraints = append(prog.Constraints, &ast.Constraint{Body: body})
		return nil
	}
	return p.errf("unknown directive .%s", d.text)
}

// predSpec parses "name/arity".
func (p *parser) predSpec() (ast.PredKey, error) {
	name, err := p.expect(tokIdent)
	if err != nil {
		return "", err
	}
	if _, err := p.expect(tokSlash); err != nil {
		return "", err
	}
	ar, err := p.expect(tokNumber)
	if err != nil {
		return "", err
	}
	n, err := strconv.Atoi(ar.text)
	if err != nil || n < 0 {
		return "", p.errf("bad arity %q", ar.text)
	}
	return ast.MakePredKey(name.text, n), nil
}

func (p *parser) body() ([]ast.Subgoal, error) {
	start := len(p.goals)
	defer func() { p.goals = p.goals[:start] }()
	for {
		s, err := p.subgoal()
		if err != nil {
			return nil, err
		}
		p.goals = append(p.goals, s)
		if !p.accept(tokComma) {
			return slices.Clone(p.goals[start:]), nil
		}
	}
}

func (p *parser) subgoal() (ast.Subgoal, error) {
	// Negative literal.
	if p.at(tokIdent) && p.cur().text == "not" && p.peek(1).kind == tokIdent {
		p.next()
		a, err := p.atom()
		if err != nil {
			return nil, err
		}
		return &ast.Lit{Atom: a, Neg: true}, nil
	}
	// Aggregate subgoal: VAR (= | ?=) aggname [VAR] ':' ...
	if p.at(tokVar) {
		if g, ok, err := p.tryAggregate(); err != nil {
			return nil, err
		} else if ok {
			return g, nil
		}
	}
	// Positive atom: IDENT '(' or bare IDENT not followed by an operator.
	if p.at(tokIdent) {
		nk := p.peek(1).kind
		if nk == tokLParen {
			a, err := p.atom()
			if err != nil {
				return nil, err
			}
			return &ast.Lit{Atom: a}, nil
		}
		if !isExprFollow(nk) {
			a, err := p.atom()
			if err != nil {
				return nil, err
			}
			return &ast.Lit{Atom: a}, nil
		}
	}
	// Otherwise a built-in comparison.
	return p.builtin()
}

// isExprFollow reports whether a token can continue an expression after an
// initial identifier (treating the identifier as a constant operand).
func isExprFollow(k tokKind) bool {
	switch k {
	case tokEq, tokNe, tokLt, tokLe, tokGt, tokGe, tokPlus, tokMinus, tokStar, tokSlash:
		return true
	}
	return false
}

// tryAggregate attempts to parse an aggregate subgoal at the current
// position, backtracking if the shape does not match.
func (p *parser) tryAggregate() (*ast.Agg, bool, error) {
	save := p.pos
	res := ast.Var(p.next().text)
	var restricted bool
	switch {
	case p.accept(tokQEq):
		restricted = true
	case p.accept(tokEq):
	default:
		p.pos = save
		return nil, false, nil
	}
	if !p.at(tokIdent) || !lattice.IsAggregateName(p.cur().text) {
		p.pos = save
		return nil, false, nil
	}
	fn := p.next().text
	var ms ast.Var
	if p.at(tokVar) {
		ms = ast.Var(p.next().text)
	}
	if !p.accept(tokColon) {
		// Not an aggregate after all (e.g. "C = min" where min is a
		// constant? — no: reject with a clear error, since aggregate
		// names are reserved in this position).
		p.pos = save
		return nil, false, nil
	}
	var conj []ast.Atom
	if p.accept(tokLBracket) {
		for {
			a, err := p.atom()
			if err != nil {
				return nil, false, err
			}
			conj = append(conj, a)
			if !p.accept(tokComma) {
				break
			}
		}
		if _, err := p.expect(tokRBracket); err != nil {
			return nil, false, err
		}
	} else {
		a, err := p.atom()
		if err != nil {
			return nil, false, err
		}
		conj = append(conj, a)
	}
	return &ast.Agg{Result: res, Restricted: restricted, Func: fn, MultisetVar: ms, Conj: conj}, true, nil
}

func (p *parser) atom() (ast.Atom, error) {
	name, err := p.expect(tokIdent)
	if err != nil {
		return ast.Atom{}, err
	}
	a := ast.Atom{Pred: name.text}
	if !p.accept(tokLParen) || p.accept(tokRParen) {
		p.prog.KeyAtom(&a) // propositional atom
		return a, nil
	}
	start := len(p.terms)
	defer func() { p.terms = p.terms[:start] }()
	for {
		t, err := p.term()
		if err != nil {
			return ast.Atom{}, err
		}
		p.terms = append(p.terms, t)
		if !p.accept(tokComma) {
			break
		}
	}
	if _, err := p.expect(tokRParen); err != nil {
		return ast.Atom{}, err
	}
	a.Args = slices.Clone(p.terms[start:])
	p.prog.KeyAtom(&a)
	return a, nil
}

func (p *parser) term() (ast.Term, error) {
	switch {
	case p.at(tokVar):
		return ast.Var(p.next().text), nil
	default:
		c, err := p.constant()
		if err != nil {
			return nil, err
		}
		return ast.Const{V: c}, nil
	}
}

// constant parses a ground constant: symbol, number (with optional sign,
// "inf" for ∞), string, or set literal.
func (p *parser) constant() (val.T, error) {
	switch {
	case p.at(tokIdent):
		t := p.next()
		if t.text == "inf" {
			return val.Number(math.Inf(1)), nil
		}
		return val.Symbol(t.text), nil
	case p.at(tokNumber):
		return val.ParseNumber(p.next().text)
	case p.at(tokMinus):
		p.next()
		if p.at(tokIdent) && p.cur().text == "inf" {
			p.next()
			return val.Number(math.Inf(-1)), nil
		}
		t, err := p.expect(tokNumber)
		if err != nil {
			return val.T{}, err
		}
		v, err := val.ParseNumber(t.text)
		if err != nil {
			return val.T{}, err
		}
		return val.Number(-v.Num()), nil
	case p.at(tokString):
		return val.String(p.next().text), nil
	case p.at(tokLBrace):
		p.next()
		var elems []val.T
		if !p.at(tokRBrace) {
			for {
				c, err := p.constant()
				if err != nil {
					return val.T{}, err
				}
				elems = append(elems, c)
				if !p.accept(tokComma) {
					break
				}
			}
		}
		if _, err := p.expect(tokRBrace); err != nil {
			return val.T{}, err
		}
		return val.SetOf(elems...), nil
	}
	return val.T{}, p.errf("expected a constant, found %s", p.cur())
}

func (p *parser) builtin() (*ast.Builtin, error) {
	l, err := p.expr()
	if err != nil {
		return nil, err
	}
	var op ast.CmpOp
	switch {
	case p.accept(tokEq):
		op = ast.OpEq
	case p.accept(tokNe):
		op = ast.OpNe
	case p.accept(tokLt):
		op = ast.OpLt
	case p.accept(tokLe):
		op = ast.OpLe
	case p.accept(tokGt):
		op = ast.OpGt
	case p.accept(tokGe):
		op = ast.OpGe
	default:
		return nil, p.errf("expected a comparison operator, found %s", p.cur())
	}
	r, err := p.expr()
	if err != nil {
		return nil, err
	}
	return &ast.Builtin{Op: op, L: l, R: r}, nil
}

// expr parses additive expressions with the usual precedence.
func (p *parser) expr() (ast.Expr, error) {
	l, err := p.mulExpr()
	if err != nil {
		return nil, err
	}
	for {
		var op ast.ArithOp
		switch {
		case p.accept(tokPlus):
			op = ast.OpAdd
		case p.accept(tokMinus):
			op = ast.OpSub
		default:
			return l, nil
		}
		r, err := p.mulExpr()
		if err != nil {
			return nil, err
		}
		l = &ast.BinExpr{Op: op, L: l, R: r}
	}
}

func (p *parser) mulExpr() (ast.Expr, error) {
	l, err := p.unaryExpr()
	if err != nil {
		return nil, err
	}
	for {
		var op ast.ArithOp
		switch {
		case p.accept(tokStar):
			op = ast.OpMul
		case p.accept(tokSlash):
			op = ast.OpDiv
		default:
			return l, nil
		}
		r, err := p.unaryExpr()
		if err != nil {
			return nil, err
		}
		l = &ast.BinExpr{Op: op, L: l, R: r}
	}
}

func (p *parser) unaryExpr() (ast.Expr, error) {
	switch {
	case p.accept(tokMinus):
		e, err := p.unaryExpr()
		if err != nil {
			return nil, err
		}
		if n, ok := e.(ast.NumExpr); ok {
			return ast.NumExpr{N: -n.N}, nil
		}
		return &ast.BinExpr{Op: ast.OpSub, L: ast.NumExpr{N: 0}, R: e}, nil
	case p.at(tokLParen):
		p.next()
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		return e, nil
	case p.at(tokVar):
		return ast.VarExpr{V: ast.Var(p.next().text)}, nil
	case p.at(tokNumber):
		t := p.next()
		v, err := val.ParseNumber(t.text)
		if err != nil {
			return nil, err
		}
		return ast.NumExpr{N: v.Num()}, nil
	case p.at(tokIdent):
		t := p.next()
		if t.text == "inf" {
			return ast.NumExpr{N: math.Inf(1)}, nil
		}
		return ast.ConstExpr{V: val.Symbol(t.text)}, nil
	case p.at(tokString):
		return ast.ConstExpr{V: val.String(p.next().text)}, nil
	}
	return nil, p.errf("expected an expression, found %s", p.cur())
}
