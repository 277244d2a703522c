// Package examples_test holds the paper's worked examples as checked
// Example functions: `go test ./examples` runs each one and compares
// what it prints with its Output block. Run one with
//
//	go test -run Example_quickstart -v ./examples
package examples_test

import (
	"fmt"
	"log"
	"sort"
	"sync"

	"repro/datalog"
	"repro/internal/programs"
)

// Quickstart: the shortest-path program of Ross & Sagiv (PODS 1992),
// Example 2.6 — recursion *through* the min aggregate, evaluated as a
// minimal model over the (R ∪ {∞}, ≥) cost lattice.
func Example_quickstart() {
	p, err := datalog.Load(programs.ShortestPath, datalog.Options{})
	if err != nil {
		log.Fatal(err)
	}

	// The engine verified range restriction, conflict-freedom and
	// admissibility; the classification shows where the program sits on
	// the paper's ladder (§5).
	cl := p.Classify()
	fmt.Printf("admissible=%v  aggregate-stratified=%v  r-monotonic=%v\n\n",
		cl.Admissible, cl.AggregateStratified, cl.RMonotonic)

	// A graph with a cycle — the case stratified and well-founded
	// approaches give up on (Example 3.1), while the minimal model is
	// total and unique.
	m, stats, err := p.Solve(
		datalog.NewFact("arc", datalog.Sym("a"), datalog.Sym("b"), datalog.Num(1)),
		datalog.NewFact("arc", datalog.Sym("b"), datalog.Sym("c"), datalog.Num(2)),
		datalog.NewFact("arc", datalog.Sym("c"), datalog.Sym("a"), datalog.Num(1)),
		datalog.NewFact("arc", datalog.Sym("a"), datalog.Sym("c"), datalog.Num(9)),
	)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("shortest paths (s relation):")
	for _, row := range m.Facts("s") {
		fmt.Printf("  s(%s, %s) = %s\n", row[0], row[1], row[2])
	}
	fmt.Printf("\nsolved in %d rounds, %d rule firings\n", stats.Rounds, stats.Firings)

	// Point queries.
	if c, ok := m.Cost("s", datalog.Sym("a"), datalog.Sym("c")); ok {
		fmt.Printf("s(a, c) = %s  (the 3-hop route beats the direct arc of 9)\n", c)
	}
	if c, ok := m.Cost("s", datalog.Sym("a"), datalog.Sym("a")); ok {
		fmt.Printf("s(a, a) = %s  (the cycle's length — no stratification needed)\n", c)
	}
	// Output:
	// admissible=true  aggregate-stratified=false  r-monotonic=false
	//
	// shortest paths (s relation):
	//   s(a, a) = 4
	//   s(a, b) = 1
	//   s(a, c) = 3
	//   s(b, a) = 3
	//   s(b, b) = 4
	//   s(b, c) = 2
	//   s(c, a) = 1
	//   s(c, b) = 2
	//   s(c, c) = 4
	//
	// solved in 7 rounds, 40 rule firings
	// s(a, c) = 3  (the 3-hop route beats the direct arc of 9)
	// s(a, a) = 4  (the cycle's length — no stratification needed)
}

// Party invitations (Ross & Sagiv, PODS 1992, Example 4.3): guest X
// attends once at least K(X) acquaintances are committed. The count
// aggregate sits inside the recursion; the comparison "N >= K" stays
// monotone because K comes from the database, not from the recursion.
// Works on cyclic acquaintance graphs, where modular stratification
// fails.
func Example_party() {
	p, err := datalog.Load(programs.Party, datalog.Options{})
	if err != nil {
		log.Fatal(err)
	}

	needs := func(x string, k int) datalog.Fact {
		return datalog.NewFact("requires", datalog.Sym(x), datalog.Num(float64(k)))
	}
	knows := func(x, y string) datalog.Fact {
		return datalog.NewFact("knows", datalog.Sym(x), datalog.Sym(y))
	}

	// The acquaintance graph is cyclic (dana->alice->dana among others);
	// erin and frank demand each other — the collective-decision case the
	// paper excludes stays home.
	guests := map[string]int{
		"alice": 0, "bob": 1, "carol": 2, "dana": 1, "erin": 1, "frank": 1,
	}
	facts := []datalog.Fact{
		knows("bob", "alice"),
		knows("carol", "alice"), knows("carol", "bob"),
		knows("dana", "carol"),
		knows("alice", "dana"),
		knows("erin", "frank"), knows("frank", "erin"),
	}
	for g, k := range guests {
		facts = append(facts, needs(g, k))
	}

	m, _, err := p.Solve(facts...)
	if err != nil {
		log.Fatal(err)
	}

	names := make([]string, 0, len(guests))
	for g := range guests {
		names = append(names, g)
	}
	sort.Strings(names)
	for _, g := range names {
		status := "stays home"
		if m.Has("coming", datalog.Sym(g)) {
			status = "coming"
		}
		fmt.Printf("  %-6s (needs %d): %s\n", g, guests[g], status)
	}
	fmt.Println()
	fmt.Println("alice bootstraps the party (needs nobody); commitments cascade through")
	fmt.Println("the cycle. erin and frank each demand the other first — in the least")
	fmt.Println("model no unfounded mutual promise happens, so both stay home.")
	// Output:
	//   alice  (needs 0): coming
	//   bob    (needs 1): coming
	//   carol  (needs 2): coming
	//   dana   (needs 1): coming
	//   erin   (needs 1): stays home
	//   frank  (needs 1): stays home
	//
	// alice bootstraps the party (needs nobody); commitments cascade through
	// the cycle. erin and frank each demand the other first — in the least
	// model no unfounded mutual promise happens, so both stay home.
}

// Cyclic circuit evaluation (Ross & Sagiv, PODS 1992, Example 4.4): the
// truth value of every wire in a circuit of AND/OR gates with arbitrary
// fan-in and feedback loops. Wires default to false (a default-value
// cost predicate), which is exactly what lets the pseudo-monotonic AND
// participate in recursion (Definition 4.5): every gate always sees a
// fixed-size multiset of input values.
func Example_circuit() {
	p, err := datalog.Load(programs.Circuit, datalog.Options{})
	if err != nil {
		log.Fatal(err)
	}

	in := func(w string, v int) datalog.Fact {
		return datalog.NewFact("input", datalog.Sym(w), datalog.Num(float64(v)))
	}
	gate := func(g, kind string) datalog.Fact {
		return datalog.NewFact("gate", datalog.Sym(g), datalog.Sym(kind))
	}
	wire := func(g, w string) datalog.Fact {
		return datalog.NewFact("connect", datalog.Sym(g), datalog.Sym(w))
	}

	// An SR-latch-like loop: or1 and or2 feed each other; "set" drives
	// or1. A separate self-looped AND gate demonstrates the minimal
	// (all-false) reading of untriggered feedback.
	m, _, err := p.Solve(
		in("set", 1),
		in("idle", 0),
		gate("or1", "or"), wire("or1", "set"), wire("or1", "or2"),
		gate("or2", "or"), wire("or2", "or1"), wire("or2", "idle"),
		gate("and1", "and"), wire("and1", "or1"), wire("and1", "or2"),
		gate("loop", "and"), wire("loop", "loop"), // self-feeding AND
	)
	if err != nil {
		log.Fatal(err)
	}

	for _, w := range []string{"set", "idle", "or1", "or2", "and1", "loop"} {
		v, ok := m.Cost("t", datalog.Sym(w))
		if !ok {
			log.Fatalf("wire %s unanswered", w)
		}
		b, _ := v.Truth()
		fmt.Printf("  t(%-5s) = %v\n", w, b)
	}
	fmt.Println()
	fmt.Println("or1/or2 latch: the 'set' signal propagates around the cycle (both true).")
	fmt.Println("loop (AND feeding itself): stays false — the minimal circuit behaviour")
	fmt.Println("the paper chooses; flip the default to 1 for the maximal reading.")
	// Output:
	//   t(set  ) = true
	//   t(idle ) = false
	//   t(or1  ) = true
	//   t(or2  ) = true
	//   t(and1 ) = true
	//   t(loop ) = false
	//
	// or1/or2 latch: the 'set' signal propagates around the cycle (both true).
	// loop (AND feeding itself): stays false — the minimal circuit behaviour
	// the paper chooses; flip the default to 1 for the maximal reading.
}

// Company control (Ross & Sagiv, PODS 1992, Example 2.7): company X
// controls Y when the shares X owns in Y, together with the shares owned
// by companies X controls, exceed 50%. The definition is recursive
// *through* the sum aggregate — the motivating example the paper shares
// with Mumick et al. and Van Gelder.
func Example_companycontrol() {
	p, err := datalog.Load(programs.CompanyControl, datalog.Options{})
	if err != nil {
		log.Fatal(err)
	}

	share := func(x, y string, n float64) datalog.Fact {
		return datalog.NewFact("s", datalog.Sym(x), datalog.Sym(y), datalog.Num(n))
	}
	solveAndPrint := func(title string, facts ...datalog.Fact) {
		fmt.Printf("— %s —\n", title)
		m, _, err := p.Solve(facts...)
		if err != nil {
			log.Fatal(err)
		}
		for _, row := range m.Facts("c") {
			n, _ := m.Cost("m", row[0], row[1])
			fmt.Printf("  %s controls %s (holds %s)\n", row[0], row[1], n)
		}
		if m.Len("c") == 0 {
			fmt.Println("  nobody controls anybody")
		}
		fmt.Println()
	}

	// A holding pyramid: acme controls beta outright; acme's and beta's
	// stakes in gamma combine to a controlling position, which in turn
	// unlocks delta.
	solveAndPrint("holding pyramid",
		share("acme", "beta", 0.60),
		share("acme", "gamma", 0.30),
		share("beta", "gamma", 0.25),
		share("gamma", "delta", 0.40),
		share("acme", "delta", 0.15),
	)

	// The §5.6 discriminating database: b and c own 60% of each other.
	// In the minimal model c(a,b) and c(a,c) are *false* (a's 30% stakes
	// never combine with anything a controls); Van Gelder's well-founded
	// translation would leave them undefined — the paper's point about
	// semantics that give "too little information".
	solveAndPrint("mutual ownership (§5.6)",
		share("a", "b", 0.30),
		share("a", "c", 0.30),
		share("b", "c", 0.60),
		share("c", "b", 0.60),
	)
	// Output:
	// — holding pyramid —
	//   acme controls beta (holds 0.6)
	//   acme controls delta (holds 0.55)
	//   acme controls gamma (holds 0.55)
	//
	// — mutual ownership (§5.6) —
	//   b controls b (holds 0.6)
	//   b controls c (holds 0.6)
	//   c controls b (holds 0.6)
	//   c controls c (holds 0.6)
}

// gameProgram is §6.3's iterated construction; only Example_gameagg
// runs it.
const gameProgram = `
.cost score/2 : countnat.

% Bottom component: positions are won when some move reaches a lost
% position. Not admissible (negation through recursion) - evaluated by
% the well-founded fallback, which must be two-valued (it is: the board
% below is acyclic).
win(X) :- move(X, Y), not win(Y).

% Top component: monotonic aggregation over the solved game.
score(P, N)  :- player(P), N = count : [owns(P, X), winpos(X)].
winpos(X)    :- win(X).
`

// Aggregation over negation (Ross & Sagiv, PODS 1992, §6.3): the
// iterated construction. The bottom component is the classic win-move
// game — recursion *through negation*, outside the monotonic class — and
// is evaluated under the (two-valued) well-founded semantics; the top
// component then aggregates over it monotonically, counting each
// player's winning positions. No single prior semantics handles both
// layers; the paper's iterated minimal models do.
func Example_gameagg() {
	p, err := datalog.Load(gameProgram, datalog.Options{WFSFallback: true})
	if err != nil {
		log.Fatal(err)
	}

	move := func(x, y string) datalog.Fact {
		return datalog.NewFact("move", datalog.Sym(x), datalog.Sym(y))
	}
	owns := func(p, x string) datalog.Fact {
		return datalog.NewFact("owns", datalog.Sym(p), datalog.Sym(x))
	}

	// An acyclic board: p5 is terminal (lost), so p4 wins, p3 loses, ...
	m, _, err := p.Solve(
		move("p1", "p2"), move("p2", "p3"), move("p3", "p4"),
		move("p4", "p5"), move("p1", "p4"), move("p2", "p5"),
		owns("alice", "p1"), owns("alice", "p3"), owns("alice", "p5"),
		owns("bob", "p2"), owns("bob", "p4"),
		datalog.NewFact("player", datalog.Sym("alice")),
		datalog.NewFact("player", datalog.Sym("bob")),
	)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("winning positions:")
	for _, row := range m.Facts("win") {
		fmt.Printf("  win(%s)\n", row[0])
	}
	fmt.Println("\nwinning positions held per player:")
	for _, row := range m.Facts("score") {
		fmt.Printf("  %s: %s\n", row[0], row[1])
	}
	// Output:
	// winning positions:
	//   win(p2)
	//   win(p4)
	//
	// winning positions held per player:
	//   alice: 0
	//   bob: 2
}

// netmonitorProgram uses set-valued and graph-property aggregates; only
// Example_netmonitor runs it.
const netmonitorProgram = `
.cost report/3  : setunion.        % report(Observer, Epoch, EdgeSet)
.cost netview/1 : setunion.        % fused topology
.cost linked/1  : boolor.          % core reaches edge?
.cost caps/3    : allcaps_dom.        % caps(Svc, Replica, CapabilitySet)
.cost agreed/2  : allcaps_dom.        % capabilities all replicas share

netview(S) :- S ?= union E : report(O, T, E).
linked(B)  :- B  = core_to_edge E : report(O, T, E).
agreed(Svc, S) :- S ?= allcaps C : caps(Svc, R, C).
`

// registerNetmonitor registers netmonitorProgram's two aggregates, at
// most once per process: registering a name twice panics. `go test` runs
// each Example once whatever its -count, so only a second caller in this
// package, such as a test invoking Example_netmonitor, would repeat it.
var registerNetmonitor = sync.OnceFunc(func() {
	// Row 11: a monotone property — once the fused graph connects core to
	// edge, more reports can never disconnect it.
	datalog.RegisterConnectsProperty("core_to_edge", "core", "edge")
	// Row 10: intersection over a declared capability universe.
	datalog.RegisterIntersection("allcaps",
		datalog.Sym("tls"), datalog.Sym("http2"), datalog.Sym("gzip"), datalog.Sym("brotli"))
})

// Network monitoring with set-valued and graph-property aggregation —
// Figure 1 rows 9–11 of Ross & Sagiv (PODS 1992) through the public API.
//
// Link-state reports arrive per observer as edge sets; the union
// aggregate fuses them into a network view, a registered monotone graph
// property checks core→edge connectivity, and an intersection aggregate
// computes the capabilities every replica of a service agrees on.
func Example_netmonitor() {
	registerNetmonitor()
	p := datalog.MustLoad(netmonitorProgram, datalog.Options{})

	edges := func(pairs ...[2]string) datalog.Value {
		out := make([]datalog.Value, len(pairs))
		for i, e := range pairs {
			out[i] = datalog.Edge(e[0], e[1])
		}
		return datalog.SetOf(out...)
	}
	m, _, err := p.Solve(
		// Three partial link-state observations.
		datalog.NewFact("report", datalog.Sym("probe1"), datalog.Num(1),
			edges([2]string{"core", "agg1"}, [2]string{"agg1", "rack3"})),
		datalog.NewFact("report", datalog.Sym("probe2"), datalog.Num(1),
			edges([2]string{"rack3", "edge"})),
		datalog.NewFact("report", datalog.Sym("probe3"), datalog.Num(2),
			edges([2]string{"core", "agg2"})),
		// Capability reports from two replicas of the web service.
		datalog.NewFact("caps", datalog.Sym("web"), datalog.Sym("r1"),
			datalog.SetOf(datalog.Sym("tls"), datalog.Sym("http2"), datalog.Sym("gzip"))),
		datalog.NewFact("caps", datalog.Sym("web"), datalog.Sym("r2"),
			datalog.SetOf(datalog.Sym("tls"), datalog.Sym("gzip"), datalog.Sym("brotli"))),
	)
	if err != nil {
		log.Fatal(err)
	}

	view, _ := m.Cost("netview")
	fmt.Printf("fused topology: %s\n", view)
	linked, _ := m.Cost("linked")
	ok, _ := linked.Truth()
	fmt.Printf("core reaches edge: %v  (no single observer saw the whole path)\n", ok)
	agreed, _ := m.Cost("agreed", datalog.Sym("web"))
	fmt.Printf("capabilities all web replicas support: %s\n", agreed)
	// Output:
	// fused topology: {agg1->rack3, core->agg1, core->agg2, rack3->edge}
	// core reaches edge: true  (no single observer saw the whole path)
	// capabilities all web replicas support: {gzip, tls}
}
