package datalog_test

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/datalog"
	"repro/internal/gen"
	"repro/internal/programs"
)

// factsDataCase is one program text of the facts-as-data differential
// (TestFactsAsDataMatchesAST).
type factsDataCase struct {
	name, src string
	opts      datalog.Options
}

// factsDataCases are every example program plus generated fact-heavy
// texts: facts interleaved with rules, facts of rule-headed predicates,
// conflicting-cost duplicates, default-value predicates, awkward
// constants, and texts that fail to parse or check.
func factsDataCases(t testing.TB) []factsDataCase {
	var cases []factsDataCase
	dir := filepath.Join("..", "examples", "programs")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if filepath.Ext(e.Name()) != ".mdl" {
			continue
		}
		src, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, factsDataCase{name: "examples/" + e.Name(), src: string(src),
			opts: datalog.Options{WFSFallback: e.Name() == "game.mdl"}})
	}
	party := gen.PartyFacts(gen.Party(64, 4, 3, 1))
	circuit := gen.CircuitFacts(gen.Circuit(48, 8, 3, true, 2))
	company := gen.OwnershipFacts(gen.Ownership(16, 3, true, 3))
	g := gen.Graph(gen.RandomGraph, 32, 96, 9, 4)
	graph := gen.GraphFacts(g)
	e := g.Edges[len(g.Edges)/2]
	const sp = programs.ShortestPath
	cases = append(cases,
		factsDataCase{name: "party", src: programs.Party + party},
		factsDataCase{name: "circuit", src: programs.Circuit + circuit},
		factsDataCase{name: "company", src: programs.CompanyControl + company},
		factsDataCase{name: "graph", src: sp + graph},
		// Facts first, rules among them, declarations last.
		factsDataCase{name: "party/interleaved", src: interleave(programs.Party, party, 7)},
		factsDataCase{name: "circuit/interleaved", src: interleave(programs.Circuit, circuit, 11)},
		factsDataCase{name: "company/interleaved", src: interleave(programs.CompanyControl, company, 5)},
		factsDataCase{name: "graph/interleaved", src: interleave(sp, graph, 13)},
		// Facts of a predicate a rule heads stay rules; coming/1 is one.
		factsDataCase{name: "party/rule-headed", src: "coming(g0).\n" + programs.Party + party + "coming(g9).\nkc(g1, g2).\n"},
		factsDataCase{name: "halfsum", src: programs.Halfsum, opts: datalog.Options{Epsilon: 1e-9}},
		// A fact of a rule-headed cost predicate that no containment
		// mapping covers: a Definition 2.10 conflict.
		factsDataCase{name: "graph/rule-headed-conflict", src: sp + graph + "path(v0, direct, v1, 5).\n"},
		// Two costs for one generated tuple.
		factsDataCase{name: "graph/conflict", src: sp + graph + fmt.Sprintf("arc(v%d, v%d, %g).\n", e.From, e.To, e.W+1)},
		// Conflicts in two buffers: the earliest in source order is named
		// although its buffer comes second.
		factsDataCase{name: "conflict/earliest", src: sp + ".cost w/2 : minreal.\n" +
			"arc(x, y, 1). w(a, 1). w(a, 2). arc(x, y, 2).\n"},
		factsDataCase{name: "conflict/same-cost", src: sp + "arc(x, y, 1). arc(y, z, 2). arc(x, y, 1).\n"},
		factsDataCase{name: "conflict/skip-checks", src: sp + "arc(x, y, 1). arc(y, z, 2). arc(x, y, 3).\n",
			opts: datalog.Options{SkipChecks: true}},
		factsDataCase{name: "cost/outside-lattice", src: ".cost b/2 : boolor.\nq(X) :- b(X, C).\nb(a, 1). b(c, 7). b(d, 9).\n"},
		factsDataCase{name: "cost/outside-lattice-first", src: ".cost b/2 : boolor.\n.cost w/2 : minreal.\n" +
			"w(a, 1). b(a, 2). w(a, 3).\n"},
		// Default-value predicates: circuit's t/2, and one read by a rule
		// with facts of its own.
		factsDataCase{name: "default", src: ".cost d/2 : maxreal.\n.default d/2 = -inf.\n.cost e/2 : maxreal.\n" +
			"e(X, C) :- node(X), d(X, C).\nd(a, 3). node(a). node(b). d(b, -inf). node(c).\n"},
		// Strings sharing a symbol's text, nested sets, −0, infinities.
		factsDataCase{name: "constants", src: ".cost z/2 : minreal.\n.cost s/2 : setunion.\n" +
			"p(a, \"a\"). p(\"a\", a). p(\"\", x). p(b, \"b c\\n\").\n" +
			"s(g, {a, {b}, \"a\"}). s(h, {}). s(k, {c}). s(g, {a, \"a\", {b}}).\n" +
			"z(a, -0). z(b, 0). z(c, inf). z(d, -inf). z(e, -2.5e-3).\n" +
			"n(-0). n(0). n(1e0). n(1).\n" +
			"q(X, Y) :- p(X, Y).\nr(X) :- z(X, C), C < 1.\nm(X) :- n(X).\nu(X) :- s(X, S).\n"},
		// Parse errors inside facts: positions, and a lexical error
		// after a syntax error still wins.
		factsDataCase{name: "parse/missing-arg", src: sp + "arc(a, b, 1).\narc(a, , 2).\n"},
		factsDataCase{name: "parse/lex-after-syntax", src: sp + "arc(a b, 1).\narc(c, d, 2). ?\n"},
		factsDataCase{name: "parse/unterminated", src: sp + "arc(a, b, 1).\nlabel(a, \"open).\n"},
		factsDataCase{name: "parse/set", src: "s(g, {a, {b, }}).\n"},
		factsDataCase{name: "parse/variable-fact", src: "p(X).\np(a).\n"},
		factsDataCase{name: "parse/no-dot", src: "p(a).\np(b)\n"},
		factsDataCase{name: "static/unknown-lattice", src: ".cost w/2 : nolattice.\nw(a, 1).\n"},
	)
	return cases
}

// interleave returns the rules' statements (one per line) spread through
// the facts, one after every k facts, with the declarations at the end.
func interleave(rules, facts string, k int) string {
	var decls, stmts []string
	for _, l := range strings.Split(rules, "\n") {
		switch l = strings.TrimSpace(l); {
		case l == "":
		case strings.HasPrefix(l, ".cost"), strings.HasPrefix(l, ".default"):
			decls = append(decls, l)
		default:
			stmts = append(stmts, l)
		}
	}
	var b strings.Builder
	for i, f := range strings.SplitAfter(facts, "\n") {
		b.WriteString(f)
		if i%k == k-1 && len(stmts) > 0 {
			b.WriteString("\n" + stmts[0] + "\n")
			stmts = stmts[1:]
		}
	}
	for _, l := range append(stmts, decls...) {
		b.WriteString("\n" + l)
	}
	return b.String() + "\n"
}

// loadRecord is everything Load and a cold Solve of src show: the load
// error, or the fingerprint and solveRecord.
func loadRecord(src string, opts datalog.Options) string {
	p, err := datalog.Load(src, opts)
	if err != nil {
		return fmt.Sprintf("load error: %v\n", err)
	}
	return fmt.Sprintf("fingerprint: %x\n", p.Fingerprint()) + solveRecord(p, nil)
}

// solveRecord is everything a cold Solve of p over facts shows: the
// error, the model, its facts in insertion order, the Stats (wall times
// zeroed) with their per-rule rows, and the profile they annotate.
func solveRecord(p *datalog.Program, facts []datalog.Fact) string {
	m, st, err := p.Solve(facts...)
	var b strings.Builder
	fmt.Fprintf(&b, "solve error: %v\n", err)
	if m != nil {
		fmt.Fprintf(&b, "model:\n%s\nfacts:\n%s", m.String(), factFingerprint(m))
	}
	st = normStats(st)
	fmt.Fprintf(&b, "stats: %+v\nprofile:\n", st)
	p.Profile(st).Render(&b)
	return b.String()
}

// recordDigest is the line factsDataGolden keeps per case: the errors
// and fingerprint in the clear, and the hash of the whole record.
func recordDigest(record string) string {
	var clear []string
	for _, l := range strings.Split(record, "\n") {
		if strings.HasPrefix(l, "load error: ") || strings.HasPrefix(l, "solve error: ") || strings.HasPrefix(l, "fingerprint: ") {
			clear = append(clear, l)
		}
	}
	return fmt.Sprintf("%s | sha256: %x", strings.Join(clear, " | "), sha256.Sum256([]byte(record)))
}
