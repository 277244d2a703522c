package parser

import (
	"math"
	"strconv"

	"repro/internal/ast"
	"repro/internal/val"
)

// The fact fast path (the package doc states its contract). It decodes
// a fact's constants into an array on the stack and copies the row once
// into its buffer.

// maxFastArity bounds the arguments of a fact the fast path reads; a
// longer fact goes the general way.
const maxFastArity = 8

// scan is the fast path's position in the text, as the lexer keeps it.
type scan struct {
	src       string
	i         int
	line, col int32
}

// at reports whether the byte at the position is c.
func (s *scan) at(c byte) bool { return s.i < len(s.src) && s.src[s.i] == c }

// step moves past one byte that is not a newline.
func (s *scan) step() {
	s.i++
	s.col++
}

// space moves past blanks and newlines between a fact's tokens. It stops
// at a comment, where the fast path then gives up.
func (s *scan) space() {
	for ; s.i < len(s.src); s.i++ {
		switch s.src[s.i] {
		case ' ', '\t', '\r':
			s.col++
		case '\n':
			s.line++
			s.col = 1
		default:
			return
		}
	}
}

// fastFact reads the next statement if it is a ground fact the fast path
// recognises, appends its row to the program, and reports whether it
// did. It starts between statements in either of the states the parser
// leaves there: nothing of the statement lexed (at the start of the text
// and after a fact it read), or its first token lexed and nothing past
// it (after a statement the general parser read). When it reads a fact,
// it leaves nothing lexed.
func (p *parser) fastFact() bool {
	lx := &p.lx
	s := scan{src: lx.src}
	var name string
	var pos ast.Pos
	switch {
	case len(p.toks) == 0:
		lx.skip()
		i, src := lx.i, lx.src
		if i == len(src) || !isLower(src[i]) {
			return false
		}
		j := i + 1
		for j < len(src) && isIdentChar(src[j]) {
			j++
		}
		name, pos = src[i:j], ast.Pos{Line: lx.line, Col: lx.col}
		s.i, s.line, s.col = j, lx.line, lx.col+int32(j-i)
	case len(p.toks) == 1 && p.toks[0].kind == tokIdent:
		t := &p.toks[0]
		name, pos = t.text, ast.Pos{Line: t.line, Col: t.col}
		s.i, s.line, s.col = lx.i, lx.line, lx.col
	default:
		return false
	}
	var row [maxFastArity]val.T
	n := 0
	s.space()
	if s.at('(') {
		s.step()
		s.space()
		for more := !s.at(')'); more; {
			if n == maxFastArity || !p.fastConstant(&s, &row[n]) {
				return false
			}
			n++
			s.space()
			if more = s.at(','); more {
				s.step()
				s.space()
			}
		}
		if !s.at(')') {
			return false
		}
		s.step()
		s.space()
	}
	// A '.' followed by a lowercase letter starts a directive.
	if !s.at('.') || s.i+1 < len(s.src) && isLower(s.src[s.i+1]) {
		return false
	}
	s.step()
	copy(p.prog.AppendFact(name, n, pos), row[:n])
	lx.i, lx.line, lx.col = s.i, s.line, s.col
	p.toks, p.pos = p.toks[:0], 0
	return true
}

// fastConstant reads a symbol, a number, inf or -inf into v and reports
// whether it did; at anything else it moves nothing.
func (p *parser) fastConstant(s *scan, v *val.T) bool {
	src, i := s.src, s.i
	neg := i < len(src) && src[i] == '-'
	if neg {
		i++
	}
	if i == len(src) {
		return false
	}
	var j int
	switch c := src[i]; {
	case isLower(c):
		for j = i + 1; j < len(src) && isIdentChar(src[j]); j++ {
		}
		switch text := src[i:j]; {
		case text == "inf" && neg:
			*v = val.Number(math.Inf(-1))
		case text == "inf":
			*v = val.Number(math.Inf(1))
		case neg:
			return false
		default:
			*v = val.Symbol(text)
		}
	case isDigit(c):
		j = numberEnd(src, i)
		f, ok := number(src[i:j])
		if !ok {
			return false
		}
		if neg {
			f = -f
		}
		*v = val.Number(f)
	default:
		return false
	}
	s.col += int32(j - s.i)
	s.i = j
	return true
}

// number returns the value strconv.ParseFloat gives a number's text, and
// false where ParseFloat fails. An integer of up to 15 digits is exact in
// a float64, so it is read without ParseFloat.
func number(text string) (float64, bool) {
	if len(text) <= 15 {
		var n int64
		k := 0
		for ; k < len(text) && isDigit(text[k]); k++ {
			n = n*10 + int64(text[k]-'0')
		}
		if k == len(text) {
			return float64(n), true
		}
	}
	f, err := strconv.ParseFloat(text, 64)
	return f, err == nil
}
