package datalog_test

import (
	"context"
	"fmt"
	"testing"

	"repro/datalog"
	"repro/internal/gen"
	"repro/internal/programs"
	"repro/internal/snapshot"
)

// memSink keeps the encoding of every checkpoint a solve writes.
type memSink struct{ snaps [][]byte }

func (s *memSink) Write(snap *snapshot.Snapshot) error {
	s.snaps = append(s.snaps, snapshot.Encode(snap))
	return nil
}

// TestResumeWithBatchDifferential: one Resume of a checkpoint taken at
// any round of a solve, with a batch of more facts, reaches the model a
// one-shot solve of the EDB ∪ the batch computes — the restart of a
// server whose checkpoint and log disagree on how far the solve got.
// Example 2.6 on cyclic graphs, the party program (count) and company
// control (sum), at GOMAXPROCS 1 and 2.
func TestResumeWithBatchDifferential(t *testing.T) {
	cases := []struct{ name, src, edb, more string }{
		{"shortestpath/seed=3", programs.ShortestPath, gen.GraphFacts(gen.Graph(gen.CycleGraph, 12, 30, 9, 3)),
			"arc(v3, w, 1). arc(w, v0, 2). arc(v7, v1, 1)."},
		{"shortestpath/seed=4", programs.ShortestPath, gen.GraphFacts(gen.Graph(gen.CycleGraph, 16, 40, 9, 4)),
			"arc(v0, v15, 1). arc(v9, v2, 2)."},
		{"party", programs.Party, gen.PartyFacts(gen.Party(24, 3, 2, 8)),
			"knows(p3, p0). knows(p0, p7). requires(p24, 1). knows(p24, p0)."},
		{"companycontrol", programs.CompanyControl, gen.OwnershipFacts(gen.Ownership(8, 3, true, 5)),
			"s(c0, c7, 0.3). s(c0, c8, 0.6). s(c8, c3, 0.7)."},
	}
	ctx := context.Background()
	for _, tc := range cases {
		for _, procs := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/procs=%d", tc.name, procs), func(t *testing.T) {
				withProcs(t, procs)
				one, err := datalog.Load(tc.src+"\n"+tc.edb+"\n"+tc.more, datalog.Options{})
				if err != nil {
					t.Fatal(err)
				}
				want, _, err := one.Solve()
				if err != nil {
					t.Fatal(err)
				}
				p, err := datalog.Load(tc.src+"\n"+tc.edb, datalog.Options{})
				if err != nil {
					t.Fatal(err)
				}
				sink := &memSink{}
				if _, _, err := p.SolveContext(ctx, nil, datalog.WithCheckpoint(sink, 1)); err != nil {
					t.Fatal(err)
				}
				n := len(sink.snaps)
				if n < 4 {
					t.Fatalf("%d checkpoints, want a solve of several rounds", n)
				}
				for _, cut := range []int{0, 1, n / 2, n - 1} {
					restored, err := p.Restore(sink.snaps[cut])
					if err != nil {
						t.Fatal(err)
					}
					b := p.NewBatch()
					if err := b.Add(argFacts(t, tc.more)...); err != nil {
						t.Fatal(err)
					}
					got, _, err := p.Resume(ctx, restored, b)
					if err != nil {
						t.Fatalf("checkpoint %d of %d: %v", cut, n, err)
					}
					if got.String() != want.String() {
						t.Fatalf("Resume of checkpoint %d of %d with the batch:\n%s\nwant the one-shot solve:\n%s", cut, n, got, want)
					}
				}
			})
		}
	}
}

// TestResumeRefusesLikeSolveMore: Resume of a model with a fact a rule
// reads under negation refuses it with SolveMore's text and leaves the
// model as it was, since the fact could shrink the model; with nothing
// restored the same batch is only EDB, and solves.
func TestResumeRefusesLikeSolveMore(t *testing.T) {
	p, err := datalog.Load("p(X) :- q(X), not blocked(X).\nq(a).\nq(b).\n", datalog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, _, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	before := m.Snapshot()
	blocked := datalog.NewFact("blocked", datalog.Sym("a"))
	_, _, want := p.SolveMore(m, blocked)
	if want == nil {
		t.Fatal("SolveMore accepted a fact read under negation")
	}
	b := p.NewBatch()
	if err := b.Add(blocked); err != nil {
		t.Fatal(err)
	}
	got, _, err := p.Resume(context.Background(), m, b)
	if err == nil || err.Error() != want.Error() || got != nil {
		t.Fatalf("Resume = %v, %v; want the refusal %q", got, err, want)
	}
	if string(m.Snapshot()) != string(before) {
		t.Fatal("a refused Resume changed the model")
	}

	b = p.NewBatch()
	if err := b.Add(blocked); err != nil {
		t.Fatal(err)
	}
	cold, _, err := p.Resume(context.Background(), nil, b)
	if err != nil {
		t.Fatalf("Resume with nothing restored: %v", err)
	}
	if cold.Has("p", datalog.Sym("a")) || !cold.Has("p", datalog.Sym("b")) {
		t.Fatalf("cold Resume:\n%s", cold)
	}
}
