package ast

import (
	"fmt"
	"math"

	"repro/internal/val"
)

// Expr is an arithmetic expression appearing in a built-in subgoal.
type Expr interface {
	isExpr()
	String() string
	// Vars appends the variables of the expression to dst.
	Vars(dst []Var) []Var
}

// NumExpr is a numeric literal.
type NumExpr struct{ N float64 }

func (NumExpr) isExpr()                {}
func (e NumExpr) String() string       { return val.Number(e.N).String() }
func (e NumExpr) Vars(dst []Var) []Var { return dst }

// ConstExpr is a non-numeric constant (symbol, boolean) usable only with
// = and != comparisons.
type ConstExpr struct{ V val.T }

func (ConstExpr) isExpr()                {}
func (e ConstExpr) String() string       { return e.V.String() }
func (e ConstExpr) Vars(dst []Var) []Var { return dst }

// VarExpr is a variable reference.
type VarExpr struct{ V Var }

func (VarExpr) isExpr()                {}
func (e VarExpr) String() string       { return string(e.V) }
func (e VarExpr) Vars(dst []Var) []Var { return append(dst, e.V) }

// ArithOp is a binary arithmetic operator.
type ArithOp int

// The arithmetic operators.
const (
	OpAdd ArithOp = iota
	OpSub
	OpMul
	OpDiv
)

func (op ArithOp) String() string {
	switch op {
	case OpAdd:
		return "+"
	case OpSub:
		return "-"
	case OpMul:
		return "*"
	case OpDiv:
		return "/"
	}
	return "?"
}

// BinExpr is a binary arithmetic expression.
type BinExpr struct {
	Op   ArithOp
	L, R Expr
}

func (*BinExpr) isExpr() {}

func (e *BinExpr) String() string {
	var buf [32]byte
	return string(appendExpr(buf[:0], e))
}

// appendExpr appends e's concrete syntax (its String's bytes) to dst.
func appendExpr(dst []byte, e Expr) []byte {
	switch e := e.(type) {
	case NumExpr:
		return val.AppendString(dst, val.Number(e.N))
	case ConstExpr:
		return val.AppendString(dst, e.V)
	case VarExpr:
		return append(dst, e.V...)
	case *BinExpr:
		dst = append(dst, '(')
		dst = appendExpr(dst, e.L)
		dst = append(dst, ' ')
		dst = append(dst, e.Op.String()...)
		dst = append(dst, ' ')
		dst = appendExpr(dst, e.R)
		return append(dst, ')')
	}
	return append(dst, e.String()...)
}

func (e *BinExpr) Vars(dst []Var) []Var {
	dst = e.L.Vars(dst)
	return e.R.Vars(dst)
}

// EvalExpr evaluates an expression under a binding of variables to values.
// Arithmetic is defined on numbers only; it returns an error on unbound
// variables or non-numeric operands of arithmetic operators.
func EvalExpr(e Expr, lookup func(Var) (val.T, bool)) (val.T, error) {
	switch e := e.(type) {
	case NumExpr:
		return val.Number(e.N), nil
	case ConstExpr:
		return e.V, nil
	case VarExpr:
		v, ok := lookup(e.V)
		if !ok {
			return val.T{}, fmt.Errorf("unbound variable %s in expression", e.V)
		}
		return v, nil
	case *BinExpr:
		l, err := EvalExpr(e.L, lookup)
		if err != nil {
			return val.T{}, err
		}
		r, err := EvalExpr(e.R, lookup)
		if err != nil {
			return val.T{}, err
		}
		return Arith(e.Op, l, r)
	}
	return val.T{}, fmt.Errorf("bad expression %v", e)
}

// Arith applies an arithmetic operator to two values, which must be
// numbers.
func Arith(op ArithOp, l, r val.T) (val.T, error) {
	if l.Kind() != val.Num || r.Kind() != val.Num {
		return val.T{}, fmt.Errorf("arithmetic on non-numeric values %s, %s", l, r)
	}
	x, y := l.Num(), r.Num()
	switch op {
	case OpAdd:
		return val.Number(x + y), nil
	case OpSub:
		return val.Number(x - y), nil
	case OpMul:
		return val.Number(x * y), nil
	case OpDiv:
		if y == 0 {
			return val.T{}, fmt.Errorf("division by zero")
		}
		return val.Number(x / y), nil
	}
	return val.T{}, fmt.Errorf("bad arithmetic operator %v", op)
}

// Compare applies a comparison operator to two values. Ordering operators
// require numbers; equality works on all kinds.
func Compare(op CmpOp, l, r val.T) (bool, error) {
	switch op {
	case OpEq:
		return val.Equal(l, r), nil
	case OpNe:
		return !val.Equal(l, r), nil
	}
	if l.Kind() != val.Num || r.Kind() != val.Num {
		return false, fmt.Errorf("ordered comparison of non-numeric values %s, %s", l, r)
	}
	x, y := l.Num(), r.Num()
	if math.IsNaN(x) || math.IsNaN(y) {
		return false, fmt.Errorf("comparison with NaN")
	}
	switch op {
	case OpLt:
		return x < y, nil
	case OpLe:
		return x <= y, nil
	case OpGt:
		return x > y, nil
	case OpGe:
		return x >= y, nil
	}
	return false, fmt.Errorf("bad comparison operator %v", op)
}
