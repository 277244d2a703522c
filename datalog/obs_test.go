package datalog_test

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/datalog"
)

// captureEvents is a mutex-guarded event sink for tests.
type captureEvents struct {
	mu     sync.Mutex
	events []datalog.Event
}

func (c *captureEvents) sink() datalog.EventSink {
	return datalog.SinkFunc(func(e datalog.Event) {
		c.mu.Lock()
		c.events = append(c.events, e)
		c.mu.Unlock()
	})
}

func (c *captureEvents) all() []datalog.Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]datalog.Event(nil), c.events...)
}

func (c *captureEvents) count(k datalog.EventKind) int {
	n := 0
	for _, e := range c.all() {
		if e.Kind == k {
			n++
		}
	}
	return n
}

// TestEventStreamTaxonomy: one solve emits a well-bracketed stream —
// SolveBegin first, SolveEnd last, ComponentBegin/End pairs around the
// rounds of each component, one RoundEnd per counted round, and
// RuleFired events carrying the work the totals report.
func TestEventStreamTaxonomy(t *testing.T) {
	cap := &captureEvents{}
	p, err := datalog.Load(spChain, datalog.Options{Sink: cap.sink()})
	if err != nil {
		t.Fatal(err)
	}
	_, stats, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	evs := cap.all()
	if len(evs) < 4 {
		t.Fatalf("expected a full event stream, got %d events", len(evs))
	}
	if evs[0].Kind != datalog.EventSolveBegin {
		t.Fatalf("first event %v, want SolveBegin", evs[0].Kind)
	}
	last := evs[len(evs)-1]
	if last.Kind != datalog.EventSolveEnd {
		t.Fatalf("last event %v, want SolveEnd", last.Kind)
	}
	// SolveEnd carries the cumulative totals.
	if last.Firings != stats.Firings || last.Derived != stats.Derived ||
		last.Probes != stats.Probes || last.Round != stats.Rounds {
		t.Fatalf("SolveEnd totals %+v != stats %+v", last, stats)
	}
	if last.Err != "" {
		t.Fatalf("clean solve must not carry an error: %q", last.Err)
	}
	if got := cap.count(datalog.EventRoundEnd); got != stats.Rounds {
		t.Fatalf("RoundEnd events %d, want one per round (%d)", got, stats.Rounds)
	}
	begins, ends := cap.count(datalog.EventComponentBegin), cap.count(datalog.EventComponentEnd)
	if begins != ends || begins != stats.Components {
		t.Fatalf("component events begin=%d end=%d, want %d each", begins, ends, stats.Components)
	}
	// Components are bracketed: every Begin precedes its End, and the
	// End carries predicates and the admissibility verdict.
	open := -1
	for _, e := range evs {
		switch e.Kind {
		case datalog.EventComponentBegin:
			if open >= 0 {
				t.Fatalf("nested ComponentBegin for %d inside %d", e.Component, open)
			}
			open = e.Component
		case datalog.EventComponentEnd:
			if e.Component != open {
				t.Fatalf("ComponentEnd %d, want %d", e.Component, open)
			}
			if e.Preds == "" {
				t.Fatal("ComponentEnd without predicates")
			}
			if !e.Admissible {
				t.Fatalf("admissible program flagged non-admissible: %+v", e)
			}
			open = -1
		case datalog.EventRuleFired:
			if e.Rule == "" {
				t.Fatal("RuleFired without rule text")
			}
		}
	}
	// RuleFired deltas sum to the totals.
	var firings, derived int64
	for _, e := range evs {
		if e.Kind == datalog.EventRuleFired {
			firings += e.Firings
			derived += e.Derived
		}
	}
	if firings != stats.Firings || derived != stats.Derived {
		t.Fatalf("RuleFired deltas sum to firings=%d derived=%d, want %d/%d",
			firings, derived, stats.Firings, stats.Derived)
	}
}

// TestEventStreamCheckpointAndBudget: checkpoint flushes and budget
// breaches surface as events, and a failed solve's SolveEnd carries the
// error.
func TestEventStreamCheckpointAndBudget(t *testing.T) {
	cap := &captureEvents{}
	p, err := datalog.Load(spChain, datalog.Options{Sink: cap.sink()})
	if err != nil {
		t.Fatal(err)
	}
	ckpt := filepath.Join(t.TempDir(), "ev.ckpt")
	_, _, err = p.SolveContext(context.Background(), nil,
		datalog.WithMaxFacts(4), datalog.WithCheckpoint(datalog.FileCheckpoint(ckpt), 1))
	if !errors.Is(err, datalog.ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
	if cap.count(datalog.EventCheckpointFlushed) == 0 {
		t.Fatal("no CheckpointFlushed events despite CheckpointEvery=1")
	}
	if cap.count(datalog.EventBudgetBreach) == 0 {
		t.Fatal("no BudgetBreach event before the budget error")
	}
	evs := cap.all()
	last := evs[len(evs)-1]
	if last.Kind != datalog.EventSolveEnd || !strings.Contains(last.Err, "budget") {
		t.Fatalf("SolveEnd of a failed solve must carry the error, got %+v", last)
	}
}

// TestEventStreamDivergence: the ω-limit detector warns before failing.
func TestEventStreamDivergence(t *testing.T) {
	cap := &captureEvents{}
	p, err := datalog.Load(omegaLimit, datalog.Options{Sink: cap.sink(), DivergenceStreak: 50})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.Solve(); !errors.Is(err, datalog.ErrDiverged) {
		t.Fatalf("err = %v, want ErrDiverged", err)
	}
	if cap.count(datalog.EventDivergenceWarning) == 0 {
		t.Fatal("no DivergenceWarning event before ErrDiverged")
	}
}

// sumRuleStats folds the per-rule breakdown back into scalar totals.
func sumRuleStats(st datalog.Stats) (firings, derived, probes int64) {
	for _, rs := range st.Rules {
		firings += rs.Firings
		derived += rs.Derived
		probes += rs.Probes
	}
	return
}

// checkBreakdownInvariant asserts the documented invariant: the
// per-rule and per-component breakdowns each sum to the scalar totals,
// and the operator counters account for each rule's work.
func checkBreakdownInvariant(t *testing.T, prog *datalog.Program, st datalog.Stats, label string) {
	t.Helper()
	f, d, p := sumRuleStats(st)
	if f != st.Firings || d != st.Derived || p != st.Probes {
		t.Fatalf("%s: per-rule sums firings=%d derived=%d probes=%d != totals firings=%d derived=%d probes=%d",
			label, f, d, p, st.Firings, st.Derived, st.Probes)
	}
	checkOperatorLedger(t, prog, st, label)
	var cf, cd, cp int64
	rounds := 0
	for _, cs := range st.Comps {
		cf += cs.Firings
		cd += cs.Derived
		cp += cs.Probes
		rounds += cs.Rounds
	}
	if cf != st.Firings || cd != st.Derived || cp != st.Probes || rounds != st.Rounds {
		t.Fatalf("%s: per-component sums firings=%d derived=%d probes=%d rounds=%d != totals %+v",
			label, cf, cd, cp, rounds, st)
	}
}

// checkOperatorLedger asserts the per-operator identities of every rule
// in st: its operators' probes sum to its probes, and for a rule without
// Δ-driver orders the last operator's rows-out is its firings.
func checkOperatorLedger(t *testing.T, prog *datalog.Program, st datalog.Stats, label string) {
	t.Helper()
	for _, rp := range prog.Profile(st).Rules {
		rs := st.Rules[rp.Index]
		var probes int64
		for _, op := range rp.Ops {
			probes += op.Probes
		}
		if probes != rs.Probes {
			t.Fatalf("%s: rule %d %s: operators probed %d rows, ledger probes %d", label, rp.Index, rp.Rule, probes, rs.Probes)
		}
		if len(rp.Drivers) == 0 && len(rp.Ops) > 0 && rp.Ops[len(rp.Ops)-1].Out != rs.Firings {
			t.Fatalf("%s: rule %d %s: last operator out=%d != firings %d", label, rp.Index, rp.Rule, rp.Ops[len(rp.Ops)-1].Out, rs.Firings)
		}
	}
}

// TestStatsBreakdownInvariantExamples: for every shipped example
// program (omega.mdl diverges by design and is excluded), a fresh solve
// satisfies sum(per-rule) == totals, under both strategies.
func TestStatsBreakdownInvariantExamples(t *testing.T) {
	entries, err := os.ReadDir(exampleDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".mdl") || name == "omega.mdl" {
			continue
		}
		for _, strat := range []datalog.Strategy{datalog.SemiNaive, datalog.Naive} {
			label := name
			if strat == datalog.Naive {
				label += "/naive"
			}
			t.Run(label, func(t *testing.T) {
				src, err := os.ReadFile(filepath.Join(exampleDir, name))
				if err != nil {
					t.Fatal(err)
				}
				opts := exampleOptions(name)
				opts.Strategy = strat
				p, err := datalog.Load(string(src), opts)
				if err != nil {
					t.Fatal(err)
				}
				_, stats, err := p.Solve()
				if err != nil {
					t.Fatal(err)
				}
				checkBreakdownInvariant(t, p, stats, label)
			})
		}
	}
}

// TestStatsBreakdownResume pins the documented resume semantics: a
// snapshot persists only the scalar totals, so after RestoreFile +
// Resume the per-rule/per-component breakdowns cover exactly the
// post-restore work — their sums equal the totals minus the seed.
func TestStatsBreakdownResume(t *testing.T) {
	p, err := datalog.Load(spChain, datalog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, seed, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "sp.ckpt")
	if err := m.WriteSnapshot(path); err != nil {
		t.Fatal(err)
	}
	restored, err := p.RestoreFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// The snapshot records the four core scalars only: the restored seed
	// has the solve's Firings/Derived but no Probes and no breakdowns.
	rseed := restored.Stats()
	if rseed.Firings != seed.Firings || rseed.Derived != seed.Derived ||
		rseed.Probes != 0 || len(rseed.Rules) != 0 {
		t.Fatalf("restored seed %+v, want the persisted scalars of %+v", rseed, seed)
	}
	_, st, err := p.Resume(context.Background(), restored)
	if err != nil {
		t.Fatal(err)
	}
	if st.Firings < seed.Firings {
		t.Fatalf("resumed totals %d must carry the seed %d", st.Firings, seed.Firings)
	}
	f, d, pr := sumRuleStats(st)
	if f != st.Firings-rseed.Firings || d != st.Derived-rseed.Derived || pr != st.Probes-rseed.Probes {
		t.Fatalf("post-resume breakdown sums firings=%d derived=%d probes=%d, want the deltas over the restored seed (totals %+v, seed %+v)",
			f, d, pr, st, rseed)
	}
	checkOperatorLedger(t, p, st, "after resume")
}

// TestStatsBreakdownInvariantIncremental: the invariant survives an
// in-memory SolveMore chain — per-rule breakdowns accumulate alongside
// the seeded totals.
func TestStatsBreakdownInvariantIncremental(t *testing.T) {
	p, err := datalog.Load(spChain, datalog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, stats, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	checkBreakdownInvariant(t, p, stats, "initial solve")
	m2, stats2, err := p.SolveMore(m, datalog.NewFact("arc",
		datalog.Sym("e"), datalog.Sym("f"), datalog.Num(1)))
	if err != nil {
		t.Fatal(err)
	}
	checkBreakdownInvariant(t, p, stats2, "after SolveMore")
	if _, stats3, err := p.SolveMore(m2, datalog.NewFact("arc",
		datalog.Sym("f"), datalog.Sym("g"), datalog.Num(2))); err != nil {
		t.Fatal(err)
	} else {
		checkBreakdownInvariant(t, p, stats3, "after second SolveMore")
		if stats3.Firings <= stats2.Firings {
			t.Fatalf("chained stats must grow: %d then %d", stats2.Firings, stats3.Firings)
		}
	}
}
