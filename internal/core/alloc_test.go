package core

import (
	"testing"

	"repro/internal/exec"
	"repro/internal/lattice"
	"repro/internal/parser"
	"repro/internal/relation"
	"repro/internal/val"
)

// The inner-loop steps of the reference interpreter that run once per
// join probe must not allocate: negSatisfied and the default-value point
// lookup both instantiate the atom's arguments into the evaluator's
// per-atom buffer (atomBuf), not a fresh slice. The interpreter runs no
// solves, but it is the oracle every model check (TP, IsModel,
// GroupStratified) and every explanation enumerates with, and these
// assertions keep that enumeration from regressing to a slice per probe.

// allocHarness compiles a program with a negated subgoal and a
// default-value scan and returns the evaluator, the interesting steps
// and an environment with the shared variable bound.
func allocHarness(t *testing.T) (ev *evaluator, neg, def *exec.Step, e *env) {
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
	var nvars int
	for _, ps := range en.plans {
		for _, p := range ps {
			for i := range p.steps {
				switch s := &p.steps[i]; {
				case s.Kind == exec.NegKind:
					neg, nvars = s, p.nvars
				case s.Kind == exec.ScanKind && s.Atom.Info.HasDefault:
					def, nvars = s, p.nvars
				}
			}
		}
	}
	if neg == nil || def == nil {
		t.Fatal("harness program compiled without the expected steps")
	}
	db := relation.NewDB(en.Schemas)
	db.Rel(def.Atom.Pred) // materialize so the first probe is steady state
	db.Rel(neg.Atom.Pred).InsertJoin([]val.T{val.Symbol("a")}, lattice.Elem{})
	ev = &evaluator{db: db}
	e = newEnv(nvars)
	// Both plans order q first and use variable 0 for X; bind it as the
	// preceding scan would have.
	e.vals[0] = val.Symbol("a")
	e.bound[0] = true
	return ev, neg, def, e
}

func TestNegSatisfiedDoesNotAllocate(t *testing.T) {
	ev, neg, _, e := allocHarness(t)
	if avg := testing.AllocsPerRun(200, func() {
		if _, err := ev.negSatisfied(&neg.Atom, e); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("negSatisfied allocates %.1f times per probe, want 0", avg)
	}
}

func TestDefaultValueScanDoesNotAllocate(t *testing.T) {
	ev, _, def, e := allocHarness(t)
	sink := func(relation.Row) error { return nil }
	// Once against the synthesized default row (relation miss) and once
	// against a stored row: neither path may allocate.
	for _, stored := range []bool{false, true} {
		if stored {
			ev.db.Rel(def.Atom.Pred).InsertJoin([]val.T{val.Symbol("a")}, val.Number(2))
		}
		if avg := testing.AllocsPerRun(200, func() {
			if err := ev.scan(&def.Atom, e, sink); err != nil {
				t.Fatal(err)
			}
		}); avg != 0 {
			t.Fatalf("default-value scan (stored=%v) allocates %.1f times per probe, want 0", stored, avg)
		}
	}
}
