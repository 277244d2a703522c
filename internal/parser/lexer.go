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
package parser

import (
	"fmt"
	"strconv"
)

type tokKind int

const (
	tokEOF tokKind = iota
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
	tokEOF: "end of input", tokIdent: "identifier", tokVar: "variable",
	tokNumber: "number", tokString: "string", tokDirective: "directive",
	tokLParen: "'('", tokRParen: "')'", tokLBracket: "'['", tokRBracket: "']'",
	tokLBrace: "'{'", tokRBrace: "'}'", tokComma: "','", tokDot: "'.'",
	tokColon: "':'", tokImplies: "':-'", tokEq: "'='", tokQEq: "'?='",
	tokNe: "'!='", tokLt: "'<'", tokLe: "'<='", tokGt: "'>'", tokGe: "'>='",
	tokPlus: "'+'", tokMinus: "'-'", tokStar: "'*'", tokSlash: "'/'",
}

type token struct {
	kind tokKind
	text string
	line int
	col  int
}

func (t token) String() string {
	if t.text != "" {
		return fmt.Sprintf("%s %q", tokNames[t.kind], t.text)
	}
	return tokNames[t.kind]
}

type lexError struct {
	line, col int
	msg       string
}

func (e *lexError) Error() string {
	return fmt.Sprintf("%d:%d: %s", e.line, e.col, e.msg)
}

// lex converts source text to tokens.
func lex(src string) ([]token, error) {
	// Sized for fact-heavy text (a token per two bytes or so), so the
	// slice is allocated once instead of doubling its way up.
	toks := make([]token, 0, len(src)/2+1)
	line, col := 1, 1
	i := 0
	n := len(src)
	emit := func(k tokKind, text string, c int) {
		toks = append(toks, token{kind: k, text: text, line: line, col: c})
	}
	for i < n {
		c := src[i]
		startCol := col
		switch {
		case c == '\n':
			line++
			col = 1
			i++
		case c == ' ' || c == '\t' || c == '\r':
			i++
			col++
		case c == '%':
			for i < n && src[i] != '\n' {
				i++
			}
		case c == '.':
			// '.ident' is a directive; '.' followed by space/EOF ends a
			// statement.
			if i+1 < n && isLower(src[i+1]) {
				j := i + 1
				for j < n && isIdentChar(src[j]) {
					j++
				}
				emit(tokDirective, src[i+1:j], startCol)
				col += j - i
				i = j
			} else {
				emit(tokDot, "", startCol)
				i++
				col++
			}
		case c == '(':
			emit(tokLParen, "", startCol)
			i++
			col++
		case c == ')':
			emit(tokRParen, "", startCol)
			i++
			col++
		case c == '[':
			emit(tokLBracket, "", startCol)
			i++
			col++
		case c == ']':
			emit(tokRBracket, "", startCol)
			i++
			col++
		case c == '{':
			emit(tokLBrace, "", startCol)
			i++
			col++
		case c == '}':
			emit(tokRBrace, "", startCol)
			i++
			col++
		case c == ',':
			emit(tokComma, "", startCol)
			i++
			col++
		case c == ':':
			if i+1 < n && src[i+1] == '-' {
				emit(tokImplies, "", startCol)
				i += 2
				col += 2
			} else {
				emit(tokColon, "", startCol)
				i++
				col++
			}
		case c == '=':
			emit(tokEq, "", startCol)
			i++
			col++
		case c == '?':
			if i+1 < n && src[i+1] == '=' {
				emit(tokQEq, "", startCol)
				i += 2
				col += 2
			} else {
				return nil, &lexError{line, startCol, "stray '?'"}
			}
		case c == '!':
			if i+1 < n && src[i+1] == '=' {
				emit(tokNe, "", startCol)
				i += 2
				col += 2
			} else {
				return nil, &lexError{line, startCol, "stray '!'"}
			}
		case c == '<':
			if i+1 < n && src[i+1] == '=' {
				emit(tokLe, "", startCol)
				i += 2
				col += 2
			} else {
				emit(tokLt, "", startCol)
				i++
				col++
			}
		case c == '>':
			if i+1 < n && src[i+1] == '=' {
				emit(tokGe, "", startCol)
				i += 2
				col += 2
			} else {
				emit(tokGt, "", startCol)
				i++
				col++
			}
		case c == '+':
			emit(tokPlus, "", startCol)
			i++
			col++
		case c == '-':
			emit(tokMinus, "", startCol)
			i++
			col++
		case c == '*':
			emit(tokStar, "", startCol)
			i++
			col++
		case c == '/':
			emit(tokSlash, "", startCol)
			i++
			col++
		case c == '"':
			// Scan to the closing quote (backslash escapes any byte),
			// then decode Go-style escapes so that printing with
			// strconv.Quote round-trips exactly.
			j := i + 1
			for j < n && src[j] != '"' {
				if src[j] == '\n' {
					return nil, &lexError{line, startCol, "unterminated string"}
				}
				if src[j] == '\\' && j+1 < n {
					j++
				}
				j++
			}
			if j >= n {
				return nil, &lexError{line, startCol, "unterminated string"}
			}
			decoded, err := strconv.Unquote(src[i : j+1])
			if err != nil {
				return nil, &lexError{line, startCol, fmt.Sprintf("bad string literal: %v", err)}
			}
			emit(tokString, decoded, startCol)
			col += j + 1 - i
			i = j + 1
		case c >= '0' && c <= '9':
			j := i
			for j < n && (src[j] >= '0' && src[j] <= '9') {
				j++
			}
			if j < n && src[j] == '.' && j+1 < n && src[j+1] >= '0' && src[j+1] <= '9' {
				j++
				for j < n && src[j] >= '0' && src[j] <= '9' {
					j++
				}
			}
			if j < n && (src[j] == 'e' || src[j] == 'E') {
				k := j + 1
				if k < n && (src[k] == '+' || src[k] == '-') {
					k++
				}
				if k < n && src[k] >= '0' && src[k] <= '9' {
					for k < n && src[k] >= '0' && src[k] <= '9' {
						k++
					}
					j = k
				}
			}
			emit(tokNumber, src[i:j], startCol)
			col += j - i
			i = j
		case isLower(c):
			j := i
			for j < n && isIdentChar(src[j]) {
				j++
			}
			emit(tokIdent, src[i:j], startCol)
			col += j - i
			i = j
		case c == '_' || c >= 'A' && c <= 'Z':
			j := i + 1 // always consume the leading byte
			for j < n && isIdentChar(src[j]) {
				j++
			}
			emit(tokVar, src[i:j], startCol)
			col += j - i
			i = j
		default:
			return nil, &lexError{line, startCol, fmt.Sprintf("unexpected character %q", c)}
		}
	}
	toks = append(toks, token{kind: tokEOF, line: line, col: col})
	return toks, nil
}

func isLower(c byte) bool { return c >= 'a' && c <= 'z' }

func isIdentChar(c byte) bool {
	return c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
}
