package datalog

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/programs"
)

const profileSrc = programs.ShortestPath + `
arc(a, b, 1).
arc(b, c, 2).
arc(c, a, 1).
arc(a, d, 9).
arc(c, d, 1).
`

// TestProfileCounters pins EXPLAIN ANALYZE against a hand-checked
// example: the non-recursive projection rule scans the 5-row arc
// relation exactly once, so its single scan operator must report 5 rows
// out, 5 probes, and a build side of 5 — the relation's size.
func TestProfileCounters(t *testing.T) {
	p, err := Load(profileSrc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, st, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	prof := p.Profile(st)

	byRule := map[string]*RuleProfile{}
	for i := range prof.Rules {
		byRule[prof.Rules[i].Rule] = &prof.Rules[i]
	}
	proj := byRule["path(X, direct, Y, C) :- arc(X, Y, C)."]
	if proj == nil {
		t.Fatalf("projection rule not in profile; have %d rules", len(prof.Rules))
	}
	if len(proj.Ops) != 1 || proj.Ops[0].Kind != "scan" {
		t.Fatalf("projection ops = %+v, want one scan", proj.Ops)
	}
	op := proj.Ops[0]
	if op.Out != 5 || op.Probes != 5 || op.Build != 5 {
		t.Fatalf("scan counters out=%d probes=%d build=%d, want 5/5/5 (arc has 5 rows)", op.Out, op.Probes, op.Build)
	}
	if proj.Firings != 5 {
		t.Fatalf("projection firings = %d, want 5", proj.Firings)
	}

	// The last operator's Out is the rule's firing count, for every rule
	// (none of this program's rules has a Δ-driver order).
	for _, rp := range prof.Rules {
		if len(rp.Ops) == 0 {
			continue
		}
		if got := rp.Ops[len(rp.Ops)-1].Out; got != rp.Firings {
			t.Errorf("rule %d: last op out=%d != firings=%d", rp.Index, got, rp.Firings)
		}
	}

	// A zero Stats is plain EXPLAIN: the same operators, no counters.
	plain := p.Profile(Stats{})
	for i, rp := range plain.Rules {
		if len(rp.Ops) != len(prof.Rules[i].Ops) || rp.Firings != 0 {
			t.Fatalf("plain EXPLAIN rule %d = %+v, want the structure of %+v", i, rp, prof.Rules[i])
		}
		for _, op := range rp.Ops {
			if op.In != 0 || op.Out != 0 || op.Probes != 0 || op.Build != 0 || op.Delta != 0 || op.Groups != 0 {
				t.Fatalf("plain EXPLAIN counters nonzero: rule %d op %d: %+v", rp.Index, op.Step, op)
			}
		}
	}

	var b strings.Builder
	prof.Render(&b)
	text := b.String()
	for _, want := range []string{"EXPLAIN ANALYZE\n", "scan", "aggregate", "groups="} {
		if !strings.Contains(text, want) {
			t.Errorf("Render output missing %q:\n%s", want, text)
		}
	}
}

// TestProfilePerSolve: the operator counters belong to the model's
// Stats, so two Solve calls on one Program each report exactly their
// own solve's work — the second does not see the first's rows.
func TestProfilePerSolve(t *testing.T) {
	p, err := Load(profileSrc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, st1, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	_, st2, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	// Nanos is wall time; everything else must match exactly.
	strip := func(st Stats) Stats {
		st = st.Clone()
		for i := range st.Rules {
			st.Rules[i].Nanos = 0
		}
		return st
	}
	j1, _ := json.Marshal(p.Profile(strip(st1)).Rules)
	j2, _ := json.Marshal(p.Profile(strip(st2)).Rules)
	if string(j1) != string(j2) {
		t.Fatalf("second solve's profile differs from the first's:\n%s\nwant:\n%s", j2, j1)
	}
	var scan OpStats
	for _, rp := range p.Profile(st2).Rules {
		if rp.Rule == "path(X, direct, Y, C) :- arc(X, Y, C)." {
			scan = rp.Ops[0]
		}
	}
	if scan.Out != 5 || scan.Probes != 5 {
		t.Fatalf("second solve's projection scan out=%d probes=%d, want 5/5 (its own solve only)", scan.Out, scan.Probes)
	}
}

// TestProfileDriverOrders: EXPLAIN ANALYZE lists each Δ-driver order as
// canonical step positions and folds the counters of the passes that ran
// it into the canonical operators. Example 4.3's kc rule scans knows then
// coming; its driver order runs coming first, so every Δ row of coming
// is offered once, by the coming operator: its Delta is exactly the
// number of coming tuples (each is new in exactly one round, and every
// round that derives one is followed by a kc driver pass).
func TestProfileDriverOrders(t *testing.T) {
	p, err := Load(programs.Party+gen.PartyFacts(gen.Party(32, 4, 3, 1)), Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, st, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	prof := p.Profile(st)
	var kc *RuleProfile
	for i := range prof.Rules {
		if strings.HasPrefix(prof.Rules[i].Rule, "kc(") {
			kc = &prof.Rules[i]
		}
	}
	if kc == nil {
		t.Fatal("kc rule not in profile")
	}
	if fmt.Sprint(kc.Drivers) != "[[1 0]]" {
		t.Fatalf("kc drivers = %v, want [[1 0]] (coming first, then knows)", kc.Drivers)
	}
	if len(kc.Ops) != 2 || kc.Ops[0].Op != "knows(X, Y)" || kc.Ops[1].Op != "coming(Y)" {
		t.Fatalf("kc ops are not in canonical order: %+v", kc.Ops)
	}
	if got, want := kc.Ops[1].Delta, int64(m.Len("coming")); got != want || kc.Ops[0].Delta != 0 {
		t.Fatalf("Δ rows: coming %d (want %d, one per coming tuple), knows %d (want 0)", got, want, kc.Ops[0].Delta)
	}
	var b strings.Builder
	prof.Render(&b)
	if !strings.Contains(b.String(), "Δ-driver order=[1 0]") {
		t.Fatalf("Render does not show kc's driver order:\n%s", b.String())
	}
	js, err := json.Marshal(kc)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(js), `"drivers":[[1,0]]`) {
		t.Fatalf("JSON does not carry the driver order: %s", js)
	}
}

// TestProfileConcurrentFirstUse: a program's EXPLAIN labels are rendered
// on its first Profile, which server handlers may reach from several
// goroutines at once. Every rendering of a freshly loaded program, made
// concurrently, equals a single-goroutine rendering of another fresh
// load (make race runs this under the race detector).
func TestProfileConcurrentFirstUse(t *testing.T) {
	render := func(p *Program, st Stats) string {
		var b strings.Builder
		p.Profile(st).Render(&b)
		return b.String()
	}
	src := programs.Party + gen.PartyFacts(gen.Party(32, 4, 3, 1))
	ref, err := Load(src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, refStats, err := ref.Solve()
	if err != nil {
		t.Fatal(err)
	}
	want := render(ref, Stats{})
	p, err := Load(src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, st, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	// The two solves count the same work, so the analyzed renderings of
	// both programs agree too, once the wall times are set aside.
	for _, s := range []*Stats{&st, &refStats} {
		*s = s.Clone()
		for i := range s.Rules {
			s.Rules[i].Nanos = 0
		}
	}
	wantAnalyzed := render(ref, refStats)
	const workers = 8
	got := make([]string, 2*workers)
	done := make(chan struct{})
	for i := range got {
		go func() {
			defer func() { done <- struct{}{} }()
			if i%2 == 0 {
				got[i] = render(p, Stats{})
			} else {
				got[i] = render(p, st)
			}
		}()
	}
	for range got {
		<-done
	}
	for i, g := range got {
		w := want
		if i%2 == 1 {
			w = wantAnalyzed
		}
		if g != w {
			t.Fatalf("rendering %d differs from a single-goroutine rendering:\n%s\nwant:\n%s", i, g, w)
		}
	}
}
