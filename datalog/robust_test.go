package datalog_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"repro/datalog"
	"repro/internal/programs"
)

const spChain = programs.ShortestPath + `
arc(a, b, 1). arc(b, c, 1). arc(c, d, 1). arc(d, e, 1).
`

const omegaLimit = `
.cost p/2 : sumreal.
p(b, 1).
p(a, C) :- C ?= sum D : p(X, D).
`

func TestLoadErrorClasses(t *testing.T) {
	if _, err := datalog.Load("p(X :- q(X).", datalog.Options{}); !errors.Is(err, datalog.ErrParse) {
		t.Fatalf("parse failure: err = %v, want ErrParse", err)
	}
	// Unsafe rule: head variable never bound.
	if _, err := datalog.Load("p(X) :- q(Y).", datalog.Options{}); !errors.Is(err, datalog.ErrStatic) {
		t.Fatalf("static failure: err = %v, want ErrStatic", err)
	}
}

// TestLoadRefusesBadOptions: Load checks its options before it reads the
// program, and an option no solve can run with is neither a parse error
// nor a failed static analysis, even when the text has one of those. An
// infinite tolerance would stop Example 2.6 after its first improvements
// (s(a, d, 9) where the least model has s(a, d, 4)), so Epsilon must be a
// finite number ≥ 0; a negative round bound would fail every recursive
// component after round 0.
func TestLoadRefusesBadOptions(t *testing.T) {
	for _, c := range []struct {
		name string
		opts datalog.Options
		want string
	}{
		{"negative Epsilon", datalog.Options{Epsilon: -1}, "Epsilon"},
		{"NaN Epsilon", datalog.Options{Epsilon: math.NaN()}, "Epsilon"},
		{"infinite Epsilon", datalog.Options{Epsilon: math.Inf(1)}, "Epsilon"},
		{"-infinite Epsilon", datalog.Options{Epsilon: math.Inf(-1)}, "Epsilon"},
		{"MaxRounds -1", datalog.Options{MaxRounds: -1}, "MaxRounds"},
		{"MaxRounds MinInt", datalog.Options{MaxRounds: math.MinInt}, "MaxRounds"},
	} {
		for _, src := range []string{spChain, "p(X :- q(X).", "p(X) :- q(Y)."} {
			_, err := datalog.Load(src, c.opts)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("%s: err = %v, want a refusal naming %s", c.name, err, c.want)
			}
			if errors.Is(err, datalog.ErrParse) || errors.Is(err, datalog.ErrStatic) {
				t.Errorf("%s on %q: %v is classified as a parse or static-check failure", c.name, src, err)
			}
		}
	}
	for _, opts := range []datalog.Options{{MaxRounds: 0}, {MaxRounds: 1}, {Epsilon: 0}, {Epsilon: 0.5}, {Epsilon: math.MaxFloat64}} {
		if _, err := datalog.Load(spChain, opts); err != nil {
			t.Errorf("%+v: %v", opts, err)
		}
	}
}

func TestSolveContextBudget(t *testing.T) {
	p, err := datalog.Load(spChain, datalog.Options{MaxFacts: 3})
	if err != nil {
		t.Fatal(err)
	}
	m, stats, err := p.SolveContext(context.Background(), nil)
	if !errors.Is(err, datalog.ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
	var ee *datalog.EngineError
	if !errors.As(err, &ee) {
		t.Fatalf("err = %T, want *EngineError", err)
	}
	if m == nil || stats.Derived == 0 {
		t.Fatal("budget breach must return the partial model and stats")
	}

	// Two recursive components: a is the transitive closure of e, b that
	// of a. The budget runs out in b, after a has completed, and the
	// error reports the solve's counters — the Stats returned beside it
	// — not b's alone.
	var chain strings.Builder
	chain.WriteString("a(X, Y) :- e(X, Y).\na(X, Z) :- a(X, Y), e(Y, Z).\n")
	chain.WriteString("b(X, Y) :- a(X, Y).\nb(X, Z) :- b(X, Y), a(Y, Z).\n")
	for i := 0; i < 7; i++ {
		fmt.Fprintf(&chain, "e(n%d, n%d).\n", i, i+1)
	}
	p, err = datalog.Load(chain.String(), datalog.Options{MaxFacts: 40})
	if err != nil {
		t.Fatal(err)
	}
	_, stats, err = p.Solve()
	if !errors.As(err, &ee) || !errors.Is(err, datalog.ErrBudgetExceeded) {
		t.Fatalf("err = %v, want an *EngineError wrapping ErrBudgetExceeded", err)
	}
	derivedIn := 0
	for _, cs := range stats.Comps {
		if cs.Derived > 0 {
			derivedIn++
		}
	}
	if stats.Derived <= 40 || derivedIn != 2 {
		t.Fatalf("stats %+v: the breach must come in b, after a's component derived", stats)
	}
	if ee.Round != stats.Rounds || ee.Firings != stats.Firings || ee.Derived != stats.Derived || ee.Limit != 40 {
		t.Fatalf("error counters rounds=%d firings=%d derived=%d limit=%d, want the returned Stats' %d/%d/%d and limit 40",
			ee.Round, ee.Firings, ee.Derived, ee.Limit, stats.Rounds, stats.Firings, stats.Derived)
	}
	if msg := err.Error(); !strings.Contains(msg, fmt.Sprintf("%d derived", stats.Derived)) {
		t.Fatalf("budget message %q does not report the solve's %d derivations", msg, stats.Derived)
	}
}

func TestSolveContextCanceledOmegaLimit(t *testing.T) {
	// With the divergence detector disabled, only the deadline stops
	// the ω-limit program.
	p, err := datalog.Load(omegaLimit, datalog.Options{MaxDuration: 50 * time.Millisecond, DivergenceStreak: -1})
	if err != nil {
		t.Fatal(err)
	}
	m, stats, err := p.SolveContext(context.Background(), nil)
	if !errors.Is(err, datalog.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if m == nil {
		t.Fatal("timed-out solve must return the partial model")
	}
	if !m.Has("p", datalog.Sym("b")) {
		t.Fatal("partial model must keep the fact p(b, 1)")
	}
	if stats.Rounds == 0 {
		t.Fatalf("stats must reflect the partial work: %+v", stats)
	}
}

func TestSolveDivergenceDiagnosisFacade(t *testing.T) {
	p, err := datalog.Load(omegaLimit, datalog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, _, err := p.Solve()
	if !errors.Is(err, datalog.ErrDiverged) {
		t.Fatalf("err = %v, want ErrDiverged", err)
	}
	var ee *datalog.EngineError
	if !errors.As(err, &ee) || ee.Divergence == nil {
		t.Fatalf("missing diagnosis: %v", err)
	}
	if ee.Divergence.Pred.Name() != "p" {
		t.Fatalf("offending predicate %s, want p", ee.Divergence.Pred)
	}
	if m == nil {
		t.Fatal("diverged solve must return the partial model")
	}
}
