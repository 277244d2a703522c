package datalog_test

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/datalog"
	"repro/internal/programs"
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

// TestEventStreamTaxonomy: one solve emits a well-bracketed stream of
// component and round boundaries — a ComponentBegin/End pair around the
// rounds of each evaluated component, whose End carries the component's
// Stats.Comps counters, and one RoundEnd per counted round, which is the
// round's RoundLog record.
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
	if got := cap.count(datalog.EventRoundEnd); got != stats.Rounds || got == 0 {
		t.Fatalf("RoundEnd events %d, want one per round (%d)", got, stats.Rounds)
	}
	checkComponentEvents(t, evs, stats)
	checkRoundEvents(t, evs, datalog.Stats{}, stats)
	// The component's predicates and verdicts are its Stats entry.
	for _, cs := range stats.Comps {
		if cs.Rounds > 0 && (cs.Preds == "" || !cs.Admissible || cs.WFS) {
			t.Fatalf("component stats %+v: want predicates, admissible, no WFS fallback", cs)
		}
	}
}

// checkComponentEvents asserts that evs, the stream of one solve that
// returned stats, holds only component and round boundaries; that each
// component that ran is bracketed by one ComponentBegin before one
// ComponentEnd, with its rounds between; and that the End carries the
// component's counters in stats.
func checkComponentEvents(t *testing.T, evs []datalog.Event, stats datalog.Stats) {
	t.Helper()
	open := map[int]bool{}
	ended := map[int]bool{}
	for _, e := range evs {
		switch e.Kind {
		case datalog.EventComponentBegin:
			if open[e.Component] || ended[e.Component] {
				t.Fatalf("second ComponentBegin for component %d", e.Component)
			}
			open[e.Component] = true
		case datalog.EventRoundEnd:
			if !open[e.Component] {
				t.Fatalf("RoundEnd outside its component: %+v", e)
			}
		case datalog.EventComponentEnd:
			if !open[e.Component] {
				t.Fatalf("ComponentEnd %d without its Begin", e.Component)
			}
			open[e.Component], ended[e.Component] = false, true
			cs := stats.Comps[e.Component]
			if e.Round != cs.Rounds || e.Firings != cs.Firings || e.Derived != cs.Derived ||
				e.Probes != cs.Probes || e.Nanos != cs.Nanos {
				t.Fatalf("ComponentEnd %+v, want the component's Stats %+v", e, cs)
			}
		default:
			t.Fatalf("unexpected event kind %v: %+v", e.Kind, e)
		}
	}
	if len(ended) != stats.Components {
		t.Fatalf("%d components bracketed, want the solve's %d", len(ended), stats.Components)
	}
	for ci, o := range open {
		if o {
			t.Fatalf("component %d never ended", ci)
		}
	}
}

// checkRoundEvents asserts that the RoundEnd events of the solve that
// extended base (a zero Stats for a fresh solve) into stats are its
// RoundLog, record for record (components stream in completion order,
// the log in component order), and that their sums equal the solve's
// work.
func checkRoundEvents(t *testing.T, evs []datalog.Event, base, stats datalog.Stats) {
	t.Helper()
	var got []datalog.RoundStats
	for _, e := range evs {
		if e.Kind == datalog.EventRoundEnd {
			got = append(got, datalog.RoundStats{Component: e.Component, Round: e.Round, Delta: e.Delta,
				Firings: e.Firings, Derived: e.Derived, Improved: e.Improved, Probes: e.Probes, Nanos: e.Nanos})
		}
	}
	slices.SortStableFunc(got, func(a, b datalog.RoundStats) int { return a.Component - b.Component })
	var want []datalog.RoundStats
	var firings, derived, probes int64
	for _, r := range stats.RoundLog {
		firings, derived, probes = firings+r.Firings, derived+r.Derived, probes+r.Probes
		r.Start = 0 // events carry no start offset
		want = append(want, r)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("RoundEnd events %+v\nwant the RoundLog %+v", got, want)
	}
	if firings != stats.Firings-base.Firings || derived != stats.Derived-base.Derived || probes != stats.Probes-base.Probes {
		t.Fatalf("RoundLog sums firings=%d derived=%d probes=%d, want the solve's work %d/%d/%d",
			firings, derived, probes, stats.Firings-base.Firings, stats.Derived-base.Derived, stats.Probes-base.Probes)
	}
}

// TestEventStreamCheckpointAndBudget: a solve that checkpoints every
// round and then breaches its budget still streams only the walk's
// boundaries — the failing component ends like any other, its rounds are
// the returned RoundLog — and the error's counters are the returned
// Stats.
func TestEventStreamCheckpointAndBudget(t *testing.T) {
	cap := &captureEvents{}
	p, err := datalog.Load(spChain, datalog.Options{Sink: cap.sink(), MaxFacts: 4})
	if err != nil {
		t.Fatal(err)
	}
	ckpt := filepath.Join(t.TempDir(), "ev.ckpt")
	_, stats, err := p.SolveContext(context.Background(), nil, datalog.WithCheckpoint(datalog.FileCheckpoint(ckpt), 1))
	if !errors.Is(err, datalog.ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
	checkFailedSolve(t, cap.all(), stats, err)
}

// TestEventStreamDivergence: a solve the ω-limit detector stops streams
// the same well-bracketed boundaries, and its error carries the returned
// Stats' counters.
func TestEventStreamDivergence(t *testing.T) {
	cap := &captureEvents{}
	p, err := datalog.Load(omegaLimit, datalog.Options{Sink: cap.sink(), DivergenceStreak: 50})
	if err != nil {
		t.Fatal(err)
	}
	_, stats, err := p.Solve()
	if !errors.Is(err, datalog.ErrDiverged) {
		t.Fatalf("err = %v, want ErrDiverged", err)
	}
	checkFailedSolve(t, cap.all(), stats, err)
}

// checkFailedSolve asserts what a failed solve of a program with one
// evaluated component reports: the event stream of checkComponentEvents
// and checkRoundEvents, and an *EngineError whose counters are the
// returned Stats'.
func checkFailedSolve(t *testing.T, evs []datalog.Event, stats datalog.Stats, err error) {
	t.Helper()
	checkComponentEvents(t, evs, stats)
	checkRoundEvents(t, evs, datalog.Stats{}, stats)
	var ee *datalog.EngineError
	if !errors.As(err, &ee) {
		t.Fatalf("err = %T, want *EngineError", err)
	}
	if ee.Round != stats.Rounds || ee.Firings != stats.Firings || ee.Derived != stats.Derived {
		t.Fatalf("error counters rounds=%d firings=%d derived=%d, want the returned Stats' %d/%d/%d",
			ee.Round, ee.Firings, ee.Derived, stats.Rounds, stats.Firings, stats.Derived)
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
// the operator counters account for each rule's work, and the RoundLog
// holds the rounds of the solve that extended base into st.
func checkBreakdownInvariant(t *testing.T, prog *datalog.Program, base, st datalog.Stats, label string) {
	t.Helper()
	checkRoundLog(t, base, st, label)
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

// checkRoundLog asserts the RoundLog contract of the solve that extended
// base (a zero Stats for a fresh solve) into st: per component, one
// record per round it ran, in round order, summing to the component's
// work in the solve (its Comps entry minus base's), with Improved a
// share of Derived; and no more records than derivations plus evaluated
// components.
func checkRoundLog(t *testing.T, base, st datalog.Stats, label string) {
	t.Helper()
	logged := make([]datalog.ComponentStats, len(st.Comps))
	for i, r := range st.RoundLog {
		if i > 0 {
			if prev := st.RoundLog[i-1]; r.Component < prev.Component || (r.Component == prev.Component && r.Round <= prev.Round) {
				t.Fatalf("%s: RoundLog out of order at %d: %+v after %+v", label, i, r, prev)
			}
		}
		if r.Improved < 0 || r.Improved > r.Derived || r.Delta < 0 || r.Nanos < 0 {
			t.Fatalf("%s: implausible round record %+v", label, r)
		}
		c := &logged[r.Component]
		c.Rounds++
		c.Firings += r.Firings
		c.Derived += r.Derived
		c.Probes += r.Probes
	}
	var derived int64
	evaluated := 0
	for ci, cs := range st.Comps {
		if ci < len(base.Comps) {
			b := base.Comps[ci]
			cs.Rounds, cs.Firings, cs.Derived, cs.Probes = cs.Rounds-b.Rounds, cs.Firings-b.Firings, cs.Derived-b.Derived, cs.Probes-b.Probes
		}
		derived += cs.Derived
		if cs.Rounds > 0 {
			evaluated++
		}
		if cs.WFS {
			continue // the well-founded construction logs no rounds
		}
		if got := logged[ci]; got.Rounds != cs.Rounds || got.Firings != cs.Firings || got.Derived != cs.Derived || got.Probes != cs.Probes {
			t.Fatalf("%s: component %d (%s): RoundLog sums rounds=%d firings=%d derived=%d probes=%d, want its work in the solve rounds=%d firings=%d derived=%d probes=%d",
				label, ci, cs.Preds, got.Rounds, got.Firings, got.Derived, got.Probes, cs.Rounds, cs.Firings, cs.Derived, cs.Probes)
		}
	}
	if int64(len(st.RoundLog)) > derived+int64(evaluated) {
		t.Fatalf("%s: %d round records exceed derivations (%d) plus evaluated components (%d)", label, len(st.RoundLog), derived, evaluated)
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
				checkBreakdownInvariant(t, p, datalog.Stats{}, stats, label)
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
	if err := m.WriteSnapshot(path, 0); err != nil {
		t.Fatal(err)
	}
	restored, _, err := p.RestoreFile(path)
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
	_, st, err := p.Resume(context.Background(), restored, nil)
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
	checkBreakdownInvariant(t, p, datalog.Stats{}, stats, "initial solve")
	m2, stats2, err := p.SolveMore(m, datalog.NewFact("arc",
		datalog.Sym("e"), datalog.Sym("f"), datalog.Num(1)))
	if err != nil {
		t.Fatal(err)
	}
	checkBreakdownInvariant(t, p, stats, stats2, "after SolveMore")
	if _, stats3, err := p.SolveMore(m2, datalog.NewFact("arc",
		datalog.Sym("f"), datalog.Sym("g"), datalog.Num(2))); err != nil {
		t.Fatal(err)
	} else {
		checkBreakdownInvariant(t, p, stats2, stats3, "after second SolveMore")
		if stats3.Firings <= stats2.Firings {
			t.Fatalf("chained stats must grow: %d then %d", stats2.Firings, stats3.Firings)
		}
	}
}

// TestRoundLogProgramsFreshAndSplit: for every internal/programs example
// (factCases), the ledger identities hold for a fresh solve of all its
// facts and for a SolveMore split — every other fact of a predicate
// SolveMore accepts arrives in the second call — and each solve's
// RoundEnd events are its RoundLog.
func TestRoundLogProgramsFreshAndSplit(t *testing.T) {
	for _, tc := range factCases() {
		t.Run(tc.name, func(t *testing.T) {
			cap := &captureEvents{}
			p, err := datalog.Load(tc.rules, datalog.Options{Epsilon: tc.eps, Sink: cap.sink()})
			if err != nil {
				t.Fatal(err)
			}
			facts := argFacts(t, tc.facts)
			_, fresh, err := p.Solve(facts...)
			if err != nil {
				t.Fatal(err)
			}
			checkBreakdownInvariant(t, p, datalog.Stats{}, fresh, "fresh")
			checkRoundEvents(t, cap.all(), datalog.Stats{}, fresh)

			empty, _, err := p.Solve()
			if err != nil {
				t.Fatal(err)
			}
			refused := map[string]bool{}
			var first, second []datalog.Fact
			for i, f := range facts {
				if _, known := refused[f.Pred]; !known {
					_, _, err := p.SolveMore(empty, f)
					refused[f.Pred] = err != nil
				}
				if i%2 == 1 && !refused[f.Pred] {
					second = append(second, f)
				} else {
					first = append(first, f)
				}
			}
			m, base, err := p.Solve(first...)
			if err != nil {
				t.Fatal(err)
			}
			cap.mu.Lock()
			cap.events = nil
			cap.mu.Unlock()
			split, st, err := p.SolveMore(m, second...)
			if err != nil {
				t.Fatal(err)
			}
			checkBreakdownInvariant(t, p, base, st, fmt.Sprintf("SolveMore of %d facts after %d", len(second), len(first)))
			checkRoundEvents(t, cap.all(), base, st)
			if len(second) > 0 && len(st.RoundLog) == 0 {
				t.Fatal("SolveMore of new facts logged no rounds")
			}
			if want, _, _ := p.Solve(facts...); split.String() != want.String() {
				t.Fatalf("split model differs from the fresh solve:\n%s\nwant:\n%s", split, want)
			}
		})
	}
}

// TestRoundLogExample51 pins the round log of Example 5.1 under ε: round
// 0 fires both rules and derives p(b) and p(a) = 1/2; every later round
// is driven by the previous round's improvement of p(a), which it raises
// once more, until the last improvement falls within ε.
func TestRoundLogExample51(t *testing.T) {
	p, err := datalog.Load(programs.Halfsum, datalog.Options{Epsilon: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	_, st, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, r := range st.RoundLog {
		got = append(got, fmt.Sprintf("c%d r%d Δ=%d f=%d d=%d i=%d p=%d",
			r.Component, r.Round, r.Delta, r.Firings, r.Derived, r.Improved, r.Probes))
	}
	want := []string{"c0 r0 Δ=0 f=2 d=2 i=0 p=1", "c0 r1 Δ=2 f=1 d=1 i=1 p=2"}
	for r := 2; r < halfsumRounds-1; r++ {
		want = append(want, fmt.Sprintf("c0 r%d Δ=1 f=1 d=1 i=1 p=2", r))
	}
	want = append(want, fmt.Sprintf("c0 r%d Δ=1 f=1 d=0 i=0 p=2", halfsumRounds-1))
	if !slices.Equal(got, want) {
		t.Fatalf("Example 5.1 round log:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// halfsumRounds is the number of rounds Example 5.1 takes to converge
// within ε = 1e-9.
const halfsumRounds = 30
