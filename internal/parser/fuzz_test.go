package parser

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/ast"
)

// FuzzParse checks that the parser never panics, that every buffered
// fact row of an accepted input equals the atom the general atom parser
// builds from the text at the row's position, and that accepted inputs
// survive a print/reparse round trip with the same rules and fact rows. The seed corpus mixes hand-picked
// grammar corners with every shipped example program. `go test`
// exercises the seeds; `go test -fuzz=FuzzParse ./internal/parser`
// explores further.
func FuzzParse(f *testing.F) {
	seeds := []string{
		"p(a).",
		"p(X) :- q(X).",
		".cost s/3 : minreal.\ns(X, Y, C) :- C ?= min D : path(X, Z, Y, D).",
		".default t/2 = 0.",
		".ic :- arc(direct, Z, C).",
		"t(G, C) :- gate(G, and), C = and D : [connect(G, W), t(W, D)].",
		"p(X, C) :- q(X, A, B), C = (A + B) * 2 - A / 2.",
		`str(n, "hello \"quoted\" world").`,
		"set(g, {a, 1, {b}}).",
		"w(x, -2.5). lim(a, inf). neg(a, -inf).",
		"coming(X) :- requires(X, K), N = count : kc(X, Y), N >= K.",
		"win(X) :- move(X, Y), not win(Y).",
		"% just a comment\n",
		"p(X) :- X != 3, X < 5, X <= 5, X > 1, X >= 1.",
		"p :- q.",
		"p() :- q().",
		"e(a, b). t(a, a). t(X, Y) :- e(X, Y). e(b, c).\nn(a). n(X). u. p(-0, \"a\", a).",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	addExamplePrograms(f)
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := Parse(src)
		if err != nil {
			return // rejection is fine; panics are not
		}
		checkFactRows(t, src, prog)
		text := prog.String()
		prog2, err := Parse(text)
		if err != nil {
			t.Fatalf("printed form fails to reparse: %v\ninput: %q\nprinted: %q", err, src, text)
		}
		if text2 := prog2.String(); text2 != text {
			// Printing must be idempotent even if it normalizes the input.
			t.Fatalf("printing not idempotent:\n%q\nvs\n%q", text, text2)
		}
		if rows, rows2 := factText(prog), factText(prog2); len(prog2.Rules) != len(prog.Rules) || rows2 != rows {
			t.Fatalf("reparse changed the program: %d rules, facts %q; was %d rules, facts %q",
				len(prog2.Rules), rows2, len(prog.Rules), rows)
		}
	})
}

// FuzzFactFastPath holds the fact fast path (facts.go) to the general
// parser: every input parses to the same program with the fast path on
// and off — rules, fact rows with their tags and positions, declarations
// and printed text — or fails with the same error text, a lexical error
// later in the text winning over a syntax error before it on both.
func FuzzFactFastPath(f *testing.F) {
	seeds := []string{
		"p(inf). p(-inf). q(a, inf, -inf). r(info, infinity).",
		"p(-0). p(0). p(-0.0). p(-00).",
		"n(1e5). n(1E-3). n(2.5e+2). n(-7.25e-1). n(007).",
		"n(1e). n(1.). n(1.e5). n(1ex).",
		"big(1e400).",
		"big(-1e400). big(1e-400).",
		"big(123456789012345678901234567890). big(999999999999999). big(9999999999999999).",
		`s(a, "x\"y\\z", "\u00e9"). s(b, "").`,
		"set(a, {b, 1}). set(b, {}). set(c, {{a}}).",
		"p(a).\r\nq(b).\r\n\r\n",
		"p(a).% a comment right after the dot\nq(b).%",
		"p(a).",
		"p(a, 1.5)",
		"p.",
		"p().",
		"p(). q. r( ). s .",
		"p(X).",
		"p(a, X). q(a). q(b, _).",
		"p(a).cost s/3 : minreal.",
		"p(a). .cost p/1 : maxreal. q(b).",
		"p(a,). p(,a). p(a b). p(a,,b).",
		"p(a) :- q(a). r(b). s(c) :- r(c).",
		"p(a). q(b).\n?",
		"p(a). q(X) :- . r(c). \"unterminated",
		"p( a , b ).\np(\n a,\n b\n).\tp(\ta\t,\tb\t)\t.",
		"p(a % a comment inside\n).",
		"p(- 1). p(-x). p(-info).",
		"p(a).X",
		"p(a).q(b).r(c).",
		"averyveryverylongsymbol(averyveryverylongsymbol, averyveryverylongsymbom, averyveryv).",
		"p(1, 2, 3, 4, 5, 6, 7, 8). p(1, 2, 3, 4, 5, 6, 7, 8, 9).",
		"Arc(a). _p(a).",
		"p(a). :- p(a). .ic :- p(b). .default t/2 = 0.",
		"p(a). p(a, b). p(a). p.",
		"win(X) :- move(X, Y), not win(Y). move(a, b). not(a).",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	addExamplePrograms(f)
	f.Fuzz(func(t *testing.T, src string) {
		slow, serr := parse(src, false)
		fast, ferr := parse(src, true)
		if serr != nil || ferr != nil {
			if serr == nil || ferr == nil || serr.Error() != ferr.Error() {
				t.Fatalf("input %q: general parser %v, fast path %v", src, serr, ferr)
			}
			return
		}
		if !reflect.DeepEqual(slow, fast) {
			t.Fatalf("input %q: the programs differ\ngeneral parser:\n%sfast path:\n%s", src, dumpProgram(slow), dumpProgram(fast))
		}
		if a, b := slow.String(), fast.String(); a != b {
			t.Fatalf("input %q: printed texts differ\ngeneral parser:\n%sfast path:\n%s", src, a, b)
		}
	})
}

// addExamplePrograms adds every shipped example program to f's seeds.
func addExamplePrograms(f *testing.F) {
	dir := filepath.Join("..", "..", "examples", "programs")
	entries, err := os.ReadDir(dir)
	if err != nil {
		f.Fatalf("reading example programs: %v", err)
	}
	for _, e := range entries {
		if e.IsDir() || filepath.Ext(e.Name()) != ".mdl" {
			continue
		}
		src, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			f.Fatalf("reading %s: %v", e.Name(), err)
		}
		f.Add(string(src))
	}
}

// dumpProgram renders prog's rules and every fact row with its tag.
func dumpProgram(prog *ast.Program) string {
	var b strings.Builder
	for _, r := range prog.Rules {
		fmt.Fprintf(&b, "rule %s\n", r)
	}
	for _, f := range prog.Facts {
		for i := 0; i < f.Len(); i++ {
			fmt.Fprintf(&b, "fact %s %+v\n", f.Rule(i), f.Tag(i))
		}
	}
	return b.String()
}

// checkFactRows holds every fact row of prog, parsed from src, to the
// atom the general atom parser builds at the row's position — what the
// parser built for every fact before facts became rows — and the row
// tags to source order.
func checkFactRows(t *testing.T, src string, prog *ast.Program) {
	t.Helper()
	lineStart := []int{0}
	for i := 0; i < len(src); i++ {
		if src[i] == '\n' {
			lineStart = append(lineStart, i+1)
		}
	}
	total := 0
	for _, f := range prog.Facts {
		total += f.Len()
	}
	offs := make([]int, total) // by Seq, +1: 0 marks a Seq not seen
	for _, f := range prog.Facts {
		for i := 0; i < f.Len(); i++ {
			tag := f.Tag(i)
			if tag.Seq < 0 || int(tag.Seq) >= total || offs[tag.Seq] != 0 || int(tag.Rule) > len(prog.Rules) {
				t.Fatalf("fact %s tagged %+v: Seq not a fresh index below %d, or Rule past %d rules", f.Rule(i), tag, total, len(prog.Rules))
			}
			off := lineStart[tag.Line-1] + int(tag.Col) - 1
			offs[tag.Seq] = off + 1
			p := newParser(lexer{src: src, i: off, line: tag.Line, col: tag.Col})
			a, err := p.atom()
			if err != nil || !p.at(tokDot) {
				t.Fatalf("fact %s at %d:%d: the atom parser reads %v, %v, then %s", f.Rule(i), tag.Line, tag.Col, a, err, p.cur())
			}
			if len(a.Args) != f.Arity || a.Key() != f.Key {
				t.Fatalf("fact row %s, atom parser %s", f.Rule(i), &a)
			}
			for j, v := range f.Row(i) {
				if c, ok := a.Args[j].(ast.Const); !ok || c.V != v {
					t.Fatalf("fact row %s, atom parser %s: argument %d differs", f.Rule(i), &a, j)
				}
			}
		}
	}
	for seq := 1; seq < total; seq++ {
		if offs[seq] <= offs[seq-1] {
			t.Fatalf("fact %d starts at byte %d, not after fact %d at byte %d", seq, offs[seq]-1, seq-1, offs[seq-1]-1)
		}
	}
}

// newParser returns a parser of its own over lx, its first token lexed.
func newParser(lx lexer) *parser {
	p := &parser{lx: lx, prog: &ast.Program{}}
	p.lexTo(0)
	return p
}

// factText renders every fact row of prog, buffer by buffer.
func factText(prog *ast.Program) string {
	var b strings.Builder
	for _, f := range prog.Facts {
		for i := 0; i < f.Len(); i++ {
			b.WriteString(f.Rule(i).String())
		}
	}
	return b.String()
}
