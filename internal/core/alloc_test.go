package core

import (
	"testing"

	"repro/internal/exec"
	"repro/internal/lattice"
	"repro/internal/parser"
	"repro/internal/relation"
	"repro/internal/val"
)

// The pipeline steps that run once per join probe must not allocate: a
// negated subgoal and a default-value point lookup both instantiate the
// atom's arguments into the machine's per-step buffer, not a fresh
// slice. Solves, the T_P and model checks, GroupStratified and every
// explanation run these machines, and explanations run them with the
// head's arguments bound before the run, as these tests bind X.

// allocHarness compiles a program with a negated subgoal and a
// default-value scan and returns the plans holding each, with a DB in
// which q(a) holds.
func allocHarness(t *testing.T) (neg, def *plan, db *relation.DB) {
	t.Helper()
	prog, err := parser.Parse(`
.cost t/2 : minreal.
.default t/2 = inf.
p(X) :- q(X), not r(X).
s(X) :- q(X), t(X, C), C < 5.
`)
	if err != nil {
		t.Fatal(err)
	}
	en, err := New(prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, ps := range en.plans {
		for _, p := range ps {
			for i := range p.steps {
				switch s := &p.steps[i]; {
				case s.Kind == exec.NegKind:
					neg = p
				case s.Kind == exec.ScanKind && s.Atom.Info.HasDefault:
					def = p
				}
			}
		}
	}
	if neg == nil || def == nil {
		t.Fatal("harness program compiled without the expected steps")
	}
	db = en.readView(relation.NewDB(en.Schemas))
	db.Rel("q/1").InsertJoin([]val.T{val.Symbol("a")}, lattice.Elem{})
	return neg, def, db
}

// runsWithoutAllocating runs p's pipeline over db with X (variable 0 in
// both plans, which scan q(X) first) bound to a, and fails when a run
// allocates; it returns the firings of the last run.
func runsWithoutAllocating(t *testing.T, what string, p *plan, db *relation.DB) int64 {
	t.Helper()
	m := p.pipe.stream.Acquire(exec.Config{DB: db})
	defer p.pipe.stream.Release(m)
	m.Vals[0], m.Bound[0] = val.Symbol("a"), true
	emit := func(*exec.Machine) error { return nil }
	if avg := testing.AllocsPerRun(200, func() {
		m.Firings = 0
		if err := m.Run(emit); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("%s allocates %.1f times per run, want 0", what, avg)
	}
	if !m.Bound[0] {
		t.Fatalf("%s: the run unbound the register bound before it", what)
	}
	m.Bound[0] = false
	return m.Firings
}

func TestNegSatisfiedDoesNotAllocate(t *testing.T) {
	neg, _, db := allocHarness(t)
	if n := runsWithoutAllocating(t, "the negated subgoal, r(a) absent", neg, db); n != 1 {
		t.Fatalf("p(a) fired %d times with r(a) absent, want 1", n)
	}
	db.Rel("r/1").InsertJoin([]val.T{val.Symbol("a")}, lattice.Elem{})
	if n := runsWithoutAllocating(t, "the negated subgoal, r(a) present", neg, db); n != 0 {
		t.Fatalf("p(a) fired %d times with r(a) present, want 0", n)
	}
}

func TestDefaultValueScanDoesNotAllocate(t *testing.T) {
	_, def, db := allocHarness(t)
	// Once against the synthesized default row (relation miss: t(a) is
	// inf, so C < 5 fails) and once against a stored row.
	if n := runsWithoutAllocating(t, "the default-value lookup, t(a) missing", def, db); n != 0 {
		t.Fatalf("s(a) fired %d times at t(a)'s default, want 0", n)
	}
	db.Rel("t/2").InsertJoin([]val.T{val.Symbol("a")}, val.Number(2))
	if n := runsWithoutAllocating(t, "the default-value lookup, t(a) stored", def, db); n != 1 {
		t.Fatalf("s(a) fired %d times with t(a, 2) stored, want 1", n)
	}
}
