package core

import (
	"testing"

	"repro/internal/programs"
)

// TestGroupStratifiedShortestPath: the §5.1 boundary — shortest path is
// group (modularly) stratified exactly on acyclic graphs.
func TestGroupStratifiedShortestPath(t *testing.T) {
	acyclic := programs.ShortestPath + `
arc(a, b, 1).
arc(b, c, 2).
arc(a, c, 5).
`
	en := mustEngine(t, acyclic, Options{})
	ok, err := en.GroupStratified(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("acyclic graphs are group stratified")
	}

	cyclic := programs.ShortestPath + `
arc(a, b, 1).
arc(b, b, 0).
`
	en = mustEngine(t, cyclic, Options{})
	ok, err = en.GroupStratified(nil)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("Example 3.1's cycle defeats modular stratification (§5.1)")
	}
}

// TestGroupStratifiedParty: Example 4.3 "would be modularly stratified
// only if the knows relation was acyclic (a very unlikely occurrence)".
func TestGroupStratifiedParty(t *testing.T) {
	acyclic := programs.Party + `
requires(a, 0).
requires(b, 1).
knows(b, a).
`
	en := mustEngine(t, acyclic, Options{})
	ok, err := en.GroupStratified(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("acyclic knows is group stratified")
	}

	cyclic := programs.Party + `
requires(a, 0).
requires(b, 1).
requires(c, 1).
knows(b, c).
knows(c, b).
knows(b, a).
`
	en = mustEngine(t, cyclic, Options{})
	ok, err = en.GroupStratified(nil)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("the knows-cycle defeats modular stratification")
	}
}

// TestGroupStratifiedNonRecursiveAggregation: aggregate-stratified
// programs are trivially group stratified on every database.
func TestGroupStratifiedNonRecursiveAggregation(t *testing.T) {
	src := `
.cost record/3 : sumreal.
.cost c_avg/2 : sumreal.
record(j, math, 80).
record(m, math, 90).
c_avg(C, G) :- G ?= avg G2 : record(S, C, G2).
`
	en := mustEngine(t, src, Options{})
	ok, err := en.GroupStratified(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("non-recursive aggregation is always group stratified")
	}
}

// TestGroupStratifiedAtomsAreWords: the atom graph tells atoms apart by
// their values, not by display keys, which a string holding a NUL byte
// can make coincide. t("a", "b\x00q:c") reads t("a\x00q:b", "c") through
// a count and nothing reads it back, so the program is group stratified;
// merging the two atoms would close a cycle through the aggregate.
func TestGroupStratifiedAtomsAreWords(t *testing.T) {
	en := mustEngine(t, `base("a\x00q:b", "c").
t(X, Y) :- base(X, Y).
t("a", "b\x00q:c") :- N = count : t(X, "c"), N >= 1.
`, Options{})
	ok, err := en.GroupStratified(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("an aggregate edge between two distinct atoms is no cycle")
	}
}
