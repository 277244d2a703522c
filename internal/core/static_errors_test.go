package core

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/deps"
	"repro/internal/lattice"
	"repro/internal/monotone"
	"repro/internal/parser"
	"repro/internal/relation"
	"repro/internal/val"
)

// staticErrorCase is one rejected program. more, when set, names a
// predicate SolveMore is handed a fact for, whose refusal is recorded
// too.
type staticErrorCase struct {
	name, src string
	opts      Options
	more      string
}

// staticErrorCases holds one rejected program per reachable error site of
// the static analyses: range restriction (package safety), the
// declarations and aggregates (ast.ValidateProgram), conflict-freedom
// (package consistency), admissibility and the §5 ladder (package
// monotone), the compiler's ordering errors (reachable under SkipChecks
// only) and SolveMore's refusals, whose texts render the offending rule.
var staticErrorCases = []staticErrorCase{
	// safety.CheckRule
	{name: "safety/negated-cost", src: `
.cost q/2 : minreal.
p(X) :- e(X), not q(X, C).`},
	{name: "safety/negated-var", src: `
p(X) :- e(X), not q(X, Y).`},
	{name: "safety/default-subgoal", src: `
.cost t/2 : boolor.
.default t/2 = 0.
p(X) :- t(X, C).`},
	{name: "safety/grouping", src: `
.cost q/2 : sumreal.
.cost p/2 : sumreal.
p(X, N) :- N = sum D : q(X, D).`},
	{name: "safety/inside-aggregate", src: `
.cost t/2 : boolor.
.default t/2 = 0.
.cost p/1 : boolor.
p(C) :- C = or D : t(W, D).`},
	{name: "safety/builtin", src: `
p(X) :- e(X), Y > 3.`},
	{name: "safety/head-cost", src: `
.cost p/2 : minreal.
p(X, C) :- e(X).`},
	{name: "safety/head-var", src: `
p(X, Y) :- e(X).`},

	// ast.ValidateProgram (aggregates render in the text)
	{name: "ast/aggregate-domain", src: `
.cost q/2 : minreal.
.cost p/2 : sumreal.
p(X, N) :- e(X), N ?= sum D : q(X, D).`},
	{name: "ast/aggregate-conjunction", src: `
.cost t/2 : boolor.
.cost p/2 : boolor.
p(G, C) :- gate(G), C = or D : [connect(G, D), t(W, D)].`},

	// consistency
	{name: "consistency/cost-respecting", src: `
.cost e/3 : minreal.
.cost p/2 : minreal.
p(X, C) :- e(X, Y, C).`},
	{name: "consistency/rule-facts", src: `
.cost p/2 : minreal.
.cost q/2 : minreal.
p(a, 1).
p(a, 2).
p(X, C) :- q(X, C).`},
	{name: "consistency/edb-facts", src: `
.cost e/2 : minreal.
e(a, 1).
e(b, 1).
e(a, 2).`},
	{name: "consistency/pair", src: `
.cost p/2 : minreal.
.cost q/2 : minreal.
.cost r/2 : minreal.
p(X, C) :- q(X, C).
p(X, C) :- r(X, C).`},

	// monotone: well-formedness (Definition 4.2)
	{name: "monotone/constant-cdb-cost", src: `
.cost p/2 : sumreal.
p(X, C) :- e(X, Y), p(Y, 3), C = 1 + 2.`},
	{name: "monotone/constant-cdb-cost-in-aggregate", src: `
.cost p/2 : sumreal.
.cost w/2 : sumreal.
p(X, N) :- e(X), N ?= sum D : [p(X, 3), w(X, D)].`},
	{name: "monotone/constant-head-cost", src: `
.cost p/2 : minreal.
p(X, 0) :- e(X, Y), p(Y, C).`},
	{name: "monotone/typed-both-literal", src: `
.cost p/2 : minreal.
.cost q/2 : maxreal.
p(X, C) :- e(X), p(X, C), q(X, C).
q(X, C) :- p(X, C).`},
	{name: "monotone/typed-both-aggregate", src: `
.cost p/2 : sumreal.
.cost q/2 : minreal.
p(X, N) :- e(X), q(X, N), N ?= sum D : p(X, D).
q(X, C) :- p(X, C).`},
	{name: "monotone/typed-both-in-aggregate", src: `
.cost p/2 : minreal.
.cost q/2 : maxreal.
.cost w/2 : sumreal.
p(X, N) :- e(X), p(X, C), N ?= sum D : [q(X, C), w(X, D)].
q(X, C) :- p(X, C).`},
	{name: "monotone/occurs-twice", src: `
.cost p/2 : sumreal.
p(X, C) :- e(X, Y, Z), p(Y, C), p(Z, C).`},
	{name: "monotone/multiset-ties", src: `
.cost p/2 : sumreal.
.cost q/2 : sumreal.
.cost tot/1 : sumreal.
tot(C) :- C = sum E : [p(X, E), q(X, E)].
p(X, E) :- e(X, Y), tot(E).
q(X, E) :- e(X, Y), tot(E).`},
	{name: "monotone/cost-in-head-data", src: `
.cost p/2 : sumreal.
p(C, C) :- e(X), p(X, C).`},
	{name: "monotone/cost-in-body-data", src: `
.cost p/2 : sumreal.
p(X, C) :- e(X, Y), p(Y, C), r(C).`},
	{name: "monotone/cost-in-aggregate-data", src: `
.cost p/2 : sumreal.
.cost w/2 : sumreal.
p(X, N) :- e(X, Y), p(Y, C), N ?= sum D : [w(C, D)].`},

	// monotone: monotonic built-ins (Definition 4.4)
	{name: "monotone/equality", src: `
.cost q/2 : sumreal.
p(X) :- r(X, K), N ?= sum D : q(X, D), N = K.
q(X, D) :- p(X), base(X, D).`},
	{name: "monotone/disequality", src: `
.cost q/2 : sumreal.
p(X) :- r(X, K), N ?= sum D : q(X, D), N != K.
q(X, D) :- p(X), base(X, D).`},
	{name: "monotone/comparison-greater", src: `
.cost q/2 : sumreal.
p(X) :- r(X, K), N ?= sum D : q(X, D), K > N.
q(X, D) :- p(X), base(X, D).`},
	{name: "monotone/comparison-less", src: `
.cost q/2 : sumreal.
p(X) :- r(X, K), N ?= sum D : q(X, D), N < K.
q(X, D) :- p(X), base(X, D).`},
	{name: "monotone/head-no-direction", src: `
.cost p/2 : minreal.
.cost w/2 : minreal.
p(X, C) :- e(X, Z), p(Z, C1), w(X, W1), C = C1 * W1.`},
	{name: "monotone/boolean-head-typed", src: `
.cost t/2 : boolor.
.cost u/2 : booland.
t(W, C) :- e(W, V), u(V, C).
u(W, C) :- e(W, V), t(V, C).`},
	{name: "monotone/boolean-head-arithmetic", src: `
.cost t/2 : boolor.
.cost n/2 : maxreal.
t(W, C) :- e(W, V), n(V, D), C = D.
n(W, D) :- e(W, V), t(V, C), D = 1.`},
	{name: "monotone/head-against-lattice", src: `
.cost p/2 : sumreal.
.cost q/2 : sumreal.
p(X, C) :- N ?= sum D : q(X, D), C = 10 - N.
q(X, D) :- e(X, Y), p(Y, D).`},
	{name: "monotone/head-typed", src: `
.cost p/2 : maxreal.
.cost q/2 : sumreal.
p(X, C) :- e(X, Y), q(Y, C).
q(X, C) :- e(X, Y), p(Y, C).`},

	// monotone: admissibility (Definition 4.5)
	{name: "monotone/negation", src: `
p(X) :- e(X, Y), not p(Y).`},
	{name: "monotone/non-monotone-aggregate", src: `
.cost p/2 : sumreal.
p(a, 1).
p(X, C) :- q(X), C ?= avg D : p(Y, D).`},
	{name: "monotone/pseudo-monotone-default", src: `
.cost t/2 : boolor.
.cost input/2 : boolor.
t(W, C) :- input(W, C).
t(G, C) :- gate(G, and), C = and D : [connect(G, W), t(W, D)].`},
	{name: "monotone/wfs-fallback", src: `
p(X) :- e(X, Y), not p(Y).`, opts: Options{WFSFallback: true}},

	// monotone.CheckRMonotonic (Report.RMonotonic)
	{name: "rmonotonic/negation", src: `
p(X) :- e(X), not q(X).`},
	{name: "rmonotonic/non-monotone-aggregate", src: `
.cost q/2 : sumreal.
.cost p/2 : sumreal.
p(X, C) :- e(X), C ?= avg D : q(X, D).`},
	{name: "rmonotonic/head", src: `
.cost q/2 : sumreal.
.cost p/2 : sumreal.
p(X, C) :- e(X), C ?= sum D : q(X, D).`},
	{name: "rmonotonic/non-constant", src: `
.cost requires/2 : countnat.
coming(X) :- requires(X, K), N = count : kc(X, Y), N >= K.
kc(X, Y)  :- knows(X, Y), coming(Y).`},
	{name: "rmonotonic/invalidated", src: `
.cost q/2 : sumreal.
p(X) :- e(X), N ?= sum D : q(X, D), N < 3.`},
	{name: "rmonotonic/arithmetic", src: `
.cost q/2 : sumreal.
p(X) :- e(X), N ?= sum D : q(X, D), N + 1 > 3.`},
	{name: "rmonotonic/none", src: `
.cost q/2 : sumreal.
p(X) :- e(X), N ?= sum D : q(X, D), N > 0.5.`},

	// The compiler's ordering errors, reachable when the checks are off.
	{name: "compile/no-order", src: `
p(X) :- Y > 3, e(X).`, opts: Options{SkipChecks: true}},
	{name: "compile/head-var", src: `
p(X, Y) :- e(X).`, opts: Options{SkipChecks: true}},
	{name: "compile/head-cost", src: `
.cost p/2 : minreal.
p(X, C) :- e(X).`, opts: Options{SkipChecks: true}},

	// SolveMore's refusals.
	{name: "more/derived", src: `
.cost arc/3 : minreal.
.cost path/3 : minreal.
path(X, Y, C) :- arc(X, Y, C).
arc(a, b, 1).`, more: "path/3"},
	{name: "more/negation", src: `
p(X) :- e(X), not q(X).
q(X) :- f(X), g(X).`, more: "g/1"},
	{name: "more/pseudo-monotone", src: `
.cost p/2 : sumreal.
.cost q/2 : sumreal.
p(X, C) :- e(X), C ?= avg D : q(X, D).`, more: "q/2"},
}

// staticErrorRecord renders what a user reads of each case: core.New's
// error, monotone.Classify's admissibility and r-monotonicity verdicts
// and, for a case naming one, SolveMore's refusal.
func staticErrorRecord(t *testing.T) string {
	var b strings.Builder
	text := func(err error) string {
		if err == nil {
			return "ok"
		}
		return err.Error()
	}
	for _, c := range staticErrorCases {
		b.WriteString("== " + c.name + "\n")
		prog, err := parser.Parse(c.src)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		en, err := New(prog, c.opts)
		b.WriteString("new: " + text(err) + "\n")
		if s, serr := ast.BuildSchemas(prog); serr == nil {
			rules, _ := prog.SplitFacts()
			rep, _ := monotone.Classify(deps.Build(prog).SCCs(), rules, s)
			b.WriteString("admissible: " + text(rep.Admissible) + "\n")
			b.WriteString("rmonotonic: " + text(rep.RMonotonic) + "\n")
		}
		if c.more != "" && en != nil {
			k := ast.PredKey(c.more)
			added := relation.NewDB(en.Schemas)
			args := make([]val.T, k.Arity())
			for i := range args {
				args[i] = val.Symbol("z")
			}
			var cost lattice.Elem
			if pi := en.Schemas.Info(k); pi != nil && pi.HasCost {
				args, cost = args[:len(args)-1], val.Number(1)
			}
			added.Rel(k).InsertJoin(args, cost)
			model, _, serr := en.Solve(nil)
			if serr != nil {
				t.Fatalf("%s: %v", c.name, serr)
			}
			_, _, merr := en.SolveMore(context.Background(), model, added, Stats{})
			b.WriteString("more: " + text(merr) + "\n")
		}
	}
	return b.String()
}

// TestStaticErrorTexts: what a rejected program's user reads is the text
// recorded in testdata/static_errors.golden, byte for byte — however the
// analyses derive their facts, and whenever they format their errors.
func TestStaticErrorTexts(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "static_errors.golden"))
	if err != nil {
		t.Fatal(err)
	}
	got := staticErrorRecord(t)
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := range min(len(gl), len(wl)) {
		if gl[i] != wl[i] {
			t.Fatalf("line %d differs from the recorded text:\ngot  %s\nwant %s", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("record has %d lines, the golden %d", len(gl), len(wl))
}
