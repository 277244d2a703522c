package datalog_test

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/datalog"
	"repro/internal/ast"
	"repro/internal/parser"
	"repro/internal/val"
)

// TestFactsAsDataMatchesAST: ground facts go from bytes to rows of the
// base EDB without an ast.Rule, and nothing observable moves. For every
// example program and generated fact-heavy text, Load(text) gives the
// model, fact order, Stats, Stats.Rules, profile, fingerprint and
// ErrParse/ErrStatic messages (positions included) that the build before
// fact rows recorded (testdata/facts_as_data.golden), and — where the
// text loads — what Load(rules only) + Solve(facts…) gives. A NaN fact,
// which no text can write, is refused on the argument route.
func TestFactsAsDataMatchesAST(t *testing.T) {
	golden := map[string]string{}
	data, err := os.ReadFile(filepath.Join("testdata", "facts_as_data.golden"))
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		if name, digest, ok := strings.Cut(l, "\t"); ok && !strings.HasPrefix(l, "#") {
			golden[name] = digest
		}
	}
	cases := factsDataCases(t)
	if len(cases) != len(golden) {
		t.Fatalf("%d cases, %d recorded", len(cases), len(golden))
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			text := loadRecord(c.src, c.opts)
			if got, want := recordDigest(text), golden[c.name]; got != want {
				t.Fatalf("record differs from the pre-change build's:\ngot  %s\nwant %s\nrecord:\n%s", got, want, text)
			}
			if strings.HasPrefix(text, "load error: ") {
				return
			}
			prog, err := parser.Parse(c.src)
			if err != nil {
				t.Fatal(err)
			}
			rules, edb := prog.SplitFacts()
			rp := &ast.Program{Rules: rules, Constraints: prog.Constraints,
				CostDecls: prog.CostDecls, DefaultDecl: prog.DefaultDecl}
			p, err := datalog.Load(rp.String(), c.opts)
			if err != nil {
				t.Fatal(err)
			}
			args := factArgs(edb)
			_, solved, _ := strings.Cut(text, "\n") // drop the fingerprint line
			if got := solveRecord(p, args); got != solved {
				t.Fatalf("Load(rules) + Solve(facts…) differs from Load(text):\n%s\nwant:\n%s", got, solved)
			}
			if len(edb) > 0 {
				nan := datalog.NewFact(edb[0].Pred)
				for range edb[0].Arity {
					nan.Args = append(nan.Args, datalog.Num(math.NaN()))
				}
				if _, _, err := p.Solve(append(args, nan)...); err == nil {
					t.Fatalf("Solve accepted the NaN fact %v", nan)
				}
			}
		})
	}
}

// factArgs turns fact rows into Solve arguments.
func factArgs(edb []*ast.FactRows) []datalog.Fact {
	var out []datalog.Fact
	for _, f := range edb {
		for i := 0; i < f.Len(); i++ {
			fact := datalog.NewFact(f.Pred)
			for _, v := range f.Row(i) {
				fact.Args = append(fact.Args, valueOf(v))
			}
			out = append(out, fact)
		}
	}
	return out
}

// valueOf returns the datalog.Value naming v.
func valueOf(v val.T) datalog.Value {
	switch v.Kind() {
	case val.Sym:
		return datalog.Sym(v.Text())
	case val.Str:
		return datalog.Str(v.Text())
	case val.Bool:
		return datalog.Bool(v.Bool())
	case val.SetKind:
		var elems []datalog.Value
		for _, e := range v.Set().Elems() {
			elems = append(elems, valueOf(e))
		}
		return datalog.SetOf(elems...)
	}
	return datalog.Num(v.Num())
}
