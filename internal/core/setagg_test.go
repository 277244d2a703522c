package core

import (
	"sync"
	"testing"

	"repro/internal/lattice"
	"repro/internal/val"
)

// registerGraphAggregates installs the instance-specific Figure 1
// aggregates used by these tests exactly once (the registries are
// global).
var registerGraphAggregates = sync.OnceFunc(func() {
	universe := val.NewSet([]val.T{
		val.Symbol("read"), val.Symbol("write"), val.Symbol("exec"), val.Symbol("admin"),
	})
	lattice.Register(lattice.NewSetUnionOver("perm", universe))
	inter := lattice.NewIntersection("allperms", universe)
	lattice.Register(inter.Domain())
	lattice.RegisterAggregate(inter)
	lattice.RegisterAggregate(lattice.NewProperty("linked", lattice.ConnectsProperty("src", "dst")))
})

// TestUnionAggregateThroughEngine runs Figure 1's set-union row through
// the full engine: the permissions granted to a user across roles.
func TestUnionAggregateThroughEngine(t *testing.T) {
	registerGraphAggregates()
	src := `
.cost grants/3 : setunion.
.cost perms/2 : setunion.
grants(alice, reader, {read}).
grants(alice, editor, {read, write}).
grants(bob, ops, {exec}).
perms(U, S) :- S ?= union P : grants(U, R, P).
`
	db := solve(t, src, Options{})
	row, ok := db.Rel("perms/2").Get([]val.T{val.Symbol("alice")})
	if !ok {
		t.Fatal("perms(alice) missing")
	}
	want := val.NewSet([]val.T{val.Symbol("read"), val.Symbol("write")})
	if !row.Cost.Set().Equal(want) {
		t.Fatalf("perms(alice) = %v, want {read, write}", row.Cost)
	}
	row, _ = db.Rel("perms/2").Get([]val.T{val.Symbol("bob")})
	if row.Cost.Set().Len() != 1 {
		t.Fatalf("perms(bob) = %v", row.Cost)
	}
}

// TestIntersectionAggregateThroughEngine runs Figure 1's intersection
// row: permissions common to all of a user's roles (⊥ = the universe).
func TestIntersectionAggregateThroughEngine(t *testing.T) {
	registerGraphAggregates()
	src := `
.cost grants/3 : allperms_dom.
.cost common/2 : allperms_dom.
grants(alice, reader, {read, admin}).
grants(alice, editor, {read, write}).
common(U, S) :- S ?= allperms P : grants(U, R, P).
`
	db := solve(t, src, Options{})
	row, ok := db.Rel("common/2").Get([]val.T{val.Symbol("alice")})
	if !ok {
		t.Fatal("common(alice) missing")
	}
	if row.Cost.Set().Len() != 1 || !row.Cost.Set().Contains(val.Symbol("read")) {
		t.Fatalf("common(alice) = %v, want {read}", row.Cost)
	}
}

// TestPropertyAggregateThroughEngine runs Figure 1's row 11: a monotone
// multigraph property (src reaches dst) over a multiset of edge sets.
func TestPropertyAggregateThroughEngine(t *testing.T) {
	registerGraphAggregates()
	src := `
.cost segment/2 : setunion.
.cost reachable/1 : boolor.
segment(s1, {}).
reachable(B) :- B = linked E : segment(S, E).
`
	// Without connecting segments the property is false.
	db := solve(t, src, Options{})
	row, ok := db.Rel("reachable/1").Get(nil)
	if !ok || row.Cost.Bool() {
		t.Fatalf("reachable = %v (%v), want false", row.Cost, ok)
	}
	// Adding segments whose union connects src to dst flips it: edges are
	// written as "u->v" strings in program text.
	src2 := `
.cost segment/2 : setunion.
.cost reachable/1 : boolor.
segment(s1, {"src->m"}).
segment(s2, {"m->dst"}).
reachable(B) :- B = linked E : segment(S, E).
`
	db = solve(t, src2, Options{})
	row, ok = db.Rel("reachable/1").Get(nil)
	if !ok || !row.Cost.Bool() {
		t.Fatalf("reachable = %v (%v), want true (union of segments links src to dst)", row.Cost, ok)
	}
}
