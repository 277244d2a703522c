// Package parser implements the concrete syntax of the rule language: a
// hand-written lexer and recursive-descent parser producing ast.Program.
//
// Syntax overview (see DESIGN.md §2):
//
//	.cost path/4 : minreal.           % cost declaration
//	.default t/2 = 0.                 % default-value cost predicate
//	.ic :- arc(direct, Z, C).         % integrity constraint
//	path(X, direct, Y, C) :- arc(X, Y, C).
//	s(X, Y, C) :- C ?= min D : path(X, Z, Y, D).
//	t(G, C) :- gate(G, and), C = and D : [connect(G, W), t(W, D)].
//
// "?=" is the paper's restricted aggregation "=r" (false on the empty
// multiset); "=" is the total form. A '%' starts a comment to end of line.
// A statement-terminating '.' must be followed by whitespace or EOF;
// '.name' introduces a directive.
//
// Ground facts are data (docs/ARCHITECTURE.md, "Facts are data"): a
// bodiless statement whose arguments are all constants becomes a row of
// its predicate's buffer on ast.Program, never an ast.Rule, and most
// never become tokens either. At each statement start the fact fast path
// (facts.go) reads pred(c1, …, cn). from the bytes straight into the
// row: symbols, numbers, inf and -inf, separated by blanks and newlines.
// At anything else — a variable, a string, a set, a comment inside the
// atom, a '-' apart from its number, a number strconv.ParseFloat
// refuses, a body, a directive after the '.' — it gives up having
// consumed nothing of the statement, and the general parser, which lexes
// tokens on demand into a per-statement buffer, reads the statement from
// its first byte. So a fact is the same row with the same tag and
// position either way, and every error is the general parser's, a
// lexical error later in the text still winning (FuzzFactFastPath).
package parser

import (
	"fmt"
	"strconv"
)

type tokKind uint8

const (
	tokEOF tokKind = iota
	tokErr         // what every token reads as after a lexical error
	tokIdent
	tokVar
	tokNumber
	tokString
	tokDirective // .cost .default .ic
	tokLParen
	tokRParen
	tokLBracket
	tokRBracket
	tokLBrace
	tokRBrace
	tokComma
	tokDot
	tokColon
	tokImplies // :-
	tokEq
	tokQEq // ?=
	tokNe
	tokLt
	tokLe
	tokGt
	tokGe
	tokPlus
	tokMinus
	tokStar
	tokSlash
)

var tokNames = map[tokKind]string{
	tokEOF: "end of input", tokErr: "lexical error", tokIdent: "identifier", tokVar: "variable",
	tokNumber: "number", tokString: "string", tokDirective: "directive",
	tokLParen: "'('", tokRParen: "')'", tokLBracket: "'['", tokRBracket: "']'",
	tokLBrace: "'{'", tokRBrace: "'}'", tokComma: "','", tokDot: "'.'",
	tokColon: "':'", tokImplies: "':-'", tokEq: "'='", tokQEq: "'?='",
	tokNe: "'!='", tokLt: "'<'", tokLe: "'<='", tokGt: "'>'", tokGe: "'>='",
	tokPlus: "'+'", tokMinus: "'-'", tokStar: "'*'", tokSlash: "'/'",
}

// token is one lexed token: 32 bytes, since a statement's tokens are
// copied into the parser's buffer.
type token struct {
	text      string
	line, col int32
	kind      tokKind
}

func (t token) String() string {
	if t.text != "" {
		return fmt.Sprintf("%s %q", tokNames[t.kind], t.text)
	}
	return tokNames[t.kind]
}

type lexError struct {
	line, col int32
	msg       string
}

func (e *lexError) Error() string {
	return fmt.Sprintf("%d:%d: %s", e.line, e.col, e.msg)
}

// lexer scans source text into tokens one at a time, on demand: the
// parser holds the tokens of the statement it is parsing and no more.
type lexer struct {
	src       string
	i         int
	line, col int32
}

func newLexer(src string) lexer { return lexer{src: src, line: 1, col: 1} }

// next scans the next token; at the end of the text it returns tokEOF
// (again on every further call).
func (lx *lexer) next() (token, error) {
	lx.skip()
	src, n := lx.src, len(lx.src)
	i := lx.i
	if i == n {
		return lx.emit(tokEOF, "", 0), nil
	}
	c := src[i]
	two := func(second byte) bool { return i+1 < n && src[i+1] == second }
	switch {
	case c == '.':
		// '.ident' is a directive; '.' followed by space/EOF ends a
		// statement.
		if i+1 < n && isLower(src[i+1]) {
			j := i + 1
			for j < n && isIdentChar(src[j]) {
				j++
			}
			return lx.emit(tokDirective, src[i+1:j], j-i), nil
		}
		return lx.emit(tokDot, "", 1), nil
	case c == '(':
		return lx.emit(tokLParen, "", 1), nil
	case c == ')':
		return lx.emit(tokRParen, "", 1), nil
	case c == '[':
		return lx.emit(tokLBracket, "", 1), nil
	case c == ']':
		return lx.emit(tokRBracket, "", 1), nil
	case c == '{':
		return lx.emit(tokLBrace, "", 1), nil
	case c == '}':
		return lx.emit(tokRBrace, "", 1), nil
	case c == ',':
		return lx.emit(tokComma, "", 1), nil
	case c == ':':
		if two('-') {
			return lx.emit(tokImplies, "", 2), nil
		}
		return lx.emit(tokColon, "", 1), nil
	case c == '=':
		return lx.emit(tokEq, "", 1), nil
	case c == '?':
		if two('=') {
			return lx.emit(tokQEq, "", 2), nil
		}
		return token{}, lx.fail("stray '?'")
	case c == '!':
		if two('=') {
			return lx.emit(tokNe, "", 2), nil
		}
		return token{}, lx.fail("stray '!'")
	case c == '<':
		if two('=') {
			return lx.emit(tokLe, "", 2), nil
		}
		return lx.emit(tokLt, "", 1), nil
	case c == '>':
		if two('=') {
			return lx.emit(tokGe, "", 2), nil
		}
		return lx.emit(tokGt, "", 1), nil
	case c == '+':
		return lx.emit(tokPlus, "", 1), nil
	case c == '-':
		return lx.emit(tokMinus, "", 1), nil
	case c == '*':
		return lx.emit(tokStar, "", 1), nil
	case c == '/':
		return lx.emit(tokSlash, "", 1), nil
	case c == '"':
		// Scan to the closing quote (backslash escapes any byte),
		// then decode Go-style escapes so that printing with
		// strconv.Quote round-trips exactly.
		j := i + 1
		for j < n && src[j] != '"' {
			if src[j] == '\n' {
				return token{}, lx.fail("unterminated string")
			}
			if src[j] == '\\' && j+1 < n {
				j++
			}
			j++
		}
		if j >= n {
			return token{}, lx.fail("unterminated string")
		}
		decoded, err := strconv.Unquote(src[i : j+1])
		if err != nil {
			return token{}, lx.fail(fmt.Sprintf("bad string literal: %v", err))
		}
		return lx.emit(tokString, decoded, j+1-i), nil
	case isDigit(c):
		j := numberEnd(src, i)
		return lx.emit(tokNumber, src[i:j], j-i), nil
	case isLower(c):
		j := i
		for j < n && isIdentChar(src[j]) {
			j++
		}
		return lx.emit(tokIdent, src[i:j], j-i), nil
	case c == '_' || c >= 'A' && c <= 'Z':
		j := i + 1 // always consume the leading byte
		for j < n && isIdentChar(src[j]) {
			j++
		}
		return lx.emit(tokVar, src[i:j], j-i), nil
	}
	return token{}, lx.fail(fmt.Sprintf("unexpected character %q", c))
}

// skip moves past whitespace and comments, advancing the column over
// every byte it passes (a comment's included) and resetting it at each
// newline.
func (lx *lexer) skip() {
	src, n := lx.src, len(lx.src)
	i := lx.i
	for i < n {
		if c := src[i]; c == '\n' {
			lx.line++
			lx.col = 1
			i++
		} else if c == ' ' || c == '\t' || c == '\r' {
			i++
			lx.col++
		} else if c == '%' {
			for i < n && src[i] != '\n' {
				i++
				lx.col++
			}
		} else {
			break
		}
	}
	lx.i = i
}

// emit returns the token of the given kind and text starting at the
// current position, and moves past its width bytes.
func (lx *lexer) emit(k tokKind, text string, width int) token {
	t := token{kind: k, text: text, line: lx.line, col: lx.col}
	lx.i += width
	lx.col += int32(width)
	return t
}

// fail reports a lexical error at the current position.
func (lx *lexer) fail(msg string) error { return &lexError{lx.line, lx.col, msg} }

// numberEnd returns the end of the number that starts with the digit at
// src[i]: digits, then a fraction only if a digit follows the '.', then
// an exponent only if a digit follows the 'e' and its sign.
func numberEnd(src string, i int) int {
	n := len(src)
	j := i
	for j < n && isDigit(src[j]) {
		j++
	}
	if j+1 < n && src[j] == '.' && isDigit(src[j+1]) {
		j++
		for j < n && isDigit(src[j]) {
			j++
		}
	}
	if j < n && (src[j] == 'e' || src[j] == 'E') {
		k := j + 1
		if k < n && (src[k] == '+' || src[k] == '-') {
			k++
		}
		if k < n && isDigit(src[k]) {
			for k < n && isDigit(src[k]) {
				k++
			}
			j = k
		}
	}
	return j
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isLower(c byte) bool { return c >= 'a' && c <= 'z' }

func isIdentChar(c byte) bool {
	return c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
}
