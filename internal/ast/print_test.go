package ast

import (
	"strings"
	"testing"

	"repro/internal/val"
)

// TestPrinting covers the concrete-syntax renderers directly (the
// parser's round-trip tests exercise them indirectly; these pin the
// exact forms).
func TestPrinting(t *testing.T) {
	cases := []struct {
		got, want string
	}{
		{Var("X").String(), "X"},
		{Sym("abc").String(), "abc"},
		{Num(2.5).String(), "2.5"},
		{BoolConst(true).String(), "1"},
		{BoolConst(false).String(), "0"},
		{(&Atom{Pred: "p"}).String(), "p"},
		{(&Atom{Pred: "p", Args: []Term{Var("X"), Sym("a")}}).String(), "p(X, a)"},
		{(&Lit{Atom: Atom{Pred: "q", Args: []Term{Var("Y")}}, Neg: true}).String(), "not q(Y)"},
		{(&Builtin{Op: OpNe, L: VarExpr{V: "A"}, R: NumExpr{N: 3}}).String(), "A != 3"},
		{(&Builtin{Op: OpLe, L: VarExpr{V: "A"}, R: ConstExpr{V: val.Symbol("c")}}).String(), "A <= c"},
		{(&BinExpr{Op: OpMul, L: VarExpr{V: "A"}, R: &BinExpr{Op: OpSub, L: NumExpr{N: 1}, R: VarExpr{V: "B"}}}).String(), "(A * (1 - B))"},
		{(&BinExpr{Op: OpDiv, L: NumExpr{N: 4}, R: NumExpr{N: 2}}).String(), "(4 / 2)"},
		{(&BinExpr{Op: OpAdd, L: NumExpr{N: 4}, R: NumExpr{N: 2}}).String(), "(4 + 2)"},
		{(&Agg{Result: "C", Func: "min", MultisetVar: "D",
			Conj: []Atom{{Pred: "p", Args: []Term{Var("D")}}}}).String(), "C = min D : p(D)"},
		{(&Agg{Result: "N", Restricted: true, Func: "count",
			Conj: []Atom{{Pred: "q", Args: []Term{Var("X")}}, {Pred: "r", Args: []Term{Var("X")}}}}).String(),
			"N ?= count : [q(X), r(X)]"},
		{(&Constraint{Body: []Subgoal{
			&Lit{Atom: Atom{Pred: "a", Args: []Term{Var("X")}}},
			&Lit{Atom: Atom{Pred: "b", Args: []Term{Var("X")}}},
		}}).String(), ":- a(X), b(X)."},
		{(&Rule{Head: Atom{Pred: "f", Args: []Term{Sym("a")}}}).String(), "f(a)."},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("got %q, want %q", c.got, c.want)
		}
	}
	// Operator names cover every variant.
	ops := map[CmpOp]string{OpEq: "=", OpNe: "!=", OpLt: "<", OpLe: "<=", OpGt: ">", OpGe: ">="}
	for op, want := range ops {
		if op.String() != want {
			t.Errorf("CmpOp %d prints %q, want %q", op, op.String(), want)
		}
	}
	ariths := map[ArithOp]string{OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "/"}
	for op, want := range ariths {
		if op.String() != want {
			t.Errorf("ArithOp %d prints %q, want %q", op, op.String(), want)
		}
	}
}

func TestIsGroundAndFreeVars(t *testing.T) {
	ground := Atom{Pred: "p", Args: []Term{Sym("a"), Num(1)}}
	if !ground.IsGround() {
		t.Fatal("ground atom misclassified")
	}
	open := Atom{Pred: "p", Args: []Term{Sym("a"), Var("X")}}
	if open.IsGround() {
		t.Fatal("open atom misclassified")
	}
	g := &Agg{Result: "C", Func: "sum", MultisetVar: "E",
		Conj: []Atom{{Pred: "p", Args: []Term{Var("X"), Var("E")}}}}
	vars := g.FreeVars(nil)
	if len(vars) != 3 { // C, X, E
		t.Fatalf("agg free vars = %v", vars)
	}
	b := &Builtin{Op: OpEq, L: VarExpr{V: "A"}, R: &BinExpr{Op: OpAdd, L: VarExpr{V: "B"}, R: NumExpr{N: 1}}}
	if vs := b.FreeVars(nil); len(vs) != 2 {
		t.Fatalf("builtin free vars = %v", vs)
	}
}

func TestProgramStringIncludesDeclarations(t *testing.T) {
	p := &Program{
		CostDecls:   []CostDecl{{Pred: "p/2", Lattice: "sumreal"}},
		DefaultDecl: []DefaultDecl{{Pred: "p/2", Value: val.Number(0)}},
		Constraints: []*Constraint{{Body: []Subgoal{&Lit{Atom: Atom{Pred: "bad"}}}}},
		Rules:       []*Rule{{Head: Atom{Pred: "p", Args: []Term{Sym("a"), Num(1)}}}},
	}
	text := p.String()
	for _, want := range []string{".cost p/2 : sumreal.", ".default p/2 = 0.", ":- bad.", "p(a, 1)."} {
		if !strings.Contains(text, want) {
			t.Errorf("program text missing %q:\n%s", want, text)
		}
	}
}

func TestEvalExprConstAndCompare(t *testing.T) {
	v, err := EvalExpr(ConstExpr{V: val.Symbol("a")}, nil)
	if err != nil || v.Text() != "a" {
		t.Fatalf("ConstExpr eval = %v, %v", v, err)
	}
	// Arithmetic over non-numbers errors.
	_, err = EvalExpr(&BinExpr{Op: OpAdd, L: ConstExpr{V: val.Symbol("a")}, R: NumExpr{N: 1}}, nil)
	if err == nil {
		t.Fatal("symbol arithmetic must error")
	}
	// Every comparison on numbers.
	for op, want := range map[CmpOp]bool{OpLt: true, OpLe: true, OpGt: false, OpGe: false, OpEq: false, OpNe: true} {
		got, err := Compare(op, val.Number(1), val.Number(2))
		if err != nil || got != want {
			t.Errorf("Compare(%v, 1, 2) = %v, %v; want %v", op, got, err, want)
		}
	}
}
