package parser

import (
	"os"
	"path/filepath"
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
			tag := f.Tags[i]
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
