package datalog

import (
	"strings"
	"testing"
)

const profileSrc = `
.cost arc/3  : minreal.
.cost path/4 : minreal.
.cost s/3    : minreal.

.ic :- arc(direct, Z, C).

path(X, direct, Y, C) :- arc(X, Y, C).
path(X, Z, Y, C)      :- s(X, Z, C1), arc(Z, Y, C2), C = C1 + C2.
s(X, Y, C)            :- C ?= min D : path(X, Z, Y, D).

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
	p, err := Load(profileSrc, Options{Profile: true})
	if err != nil {
		t.Fatal(err)
	}
	m, st, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if !p.Profiling() {
		t.Fatal("Profiling() = false with Options.Profile set")
	}
	prof := p.Profile()
	prof.Annotate(st)
	if prof.Executor != "stream" {
		t.Fatalf("executor = %q, want stream", prof.Executor)
	}

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
		t.Fatalf("Annotate: projection firings = %d, want 5", proj.Firings)
	}

	// The last operator's Out is the rule's firing count, for every rule.
	for _, rp := range prof.Rules {
		if len(rp.Ops) == 0 {
			continue
		}
		if got := rp.Ops[len(rp.Ops)-1].Out; got != rp.Firings {
			t.Errorf("rule %d: last op out=%d != firings=%d", rp.Index, got, rp.Firings)
		}
	}

	// A second snapshot minus the first is all zeros: no solve ran in
	// between.
	delta := p.Profile().Sub(prof)
	for _, rp := range delta.Rules {
		for _, op := range rp.Ops {
			if op.In != 0 || op.Out != 0 || op.Probes != 0 || op.Delta != 0 || op.Groups != 0 {
				t.Fatalf("idle delta nonzero: rule %d op %d: %+v", rp.Index, op.Step, op)
			}
		}
	}

	var b strings.Builder
	prof.Render(&b)
	text := b.String()
	for _, want := range []string{"EXPLAIN ANALYZE (executor=stream plan=syntactic)", "scan", "aggregate", "groups="} {
		if !strings.Contains(text, want) {
			t.Errorf("Render output missing %q:\n%s", want, text)
		}
	}
	_ = m
}
