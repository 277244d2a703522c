package experiments

import (
	"regexp"
	"strings"
	"testing"
)

// TestList enumerates all thirteen experiments.
func TestList(t *testing.T) {
	l := List()
	if len(l) != 13 {
		t.Fatalf("experiments = %d, want 13", len(l))
	}
	if l[0][0] != "E1" || l[12][0] != "E13" {
		t.Fatalf("ids = %v ... %v", l[0], l[12])
	}
}

// TestRunUnknownID rejects bad selectors.
func TestRunUnknownID(t *testing.T) {
	var sb strings.Builder
	if err := Run(&sb, Config{Only: "E99"}); err == nil {
		t.Fatal("unknown id must error")
	}
}

// TestSmokeCheapExperiments runs the fast experiments end to end and
// spot-checks their reported claims (the slow sweeps are covered by the
// command-line harness and the benchmarks).
func TestSmokeCheapExperiments(t *testing.T) {
	cases := []struct {
		id   string
		want []string
	}{
		{"E1", []string{"| min | minreal | >= | inf |", "pseudo-monotonic"}},
		{"E2", []string{"all_avg(72.5).", "alt_class_count(art, 0)."}},
		{"E7", []string{"stable models found: 2", "M1 = {p(a), p(b), q(b)}", "M2 = {p(b), q(a), q(b)}"}},
		{"E8", []string{"| M1 (least) | 1 | true | true |", "| M2 | 0 | true | false |"}},
		{"E9", []string{
			"| shortest path, acyclic | 10 | 0 | true | true |",
			"| shortest path, cyclic (Ex 3.1) | 4 | 4 | false | false |",
			"| party, acyclic | 6 | 0 | true | true |",
			"| party, cyclic | 4 | 4 | false | true |",
		}},
		{"E10", []string{"rewrite diverges: true"}},
		{"E11", []string{"| 1e-09 | 30 |"}},
		// Naive / semi-naive firings: shortest path at n = 32, company
		// control at n = 16 (EXPERIMENTS.md records the full-size runs).
		{"E12", []string{"| 55794 |", "| 6616 | true |", "| 1498 |", "| 202 | true |"}},
		{"E13", []string{"| company control, fused (§5.2) | false | true | true |"}},
	}
	for _, c := range cases {
		var sb strings.Builder
		if err := Run(&sb, Config{Quick: true, Only: c.id}); err != nil {
			t.Fatalf("%s: %v", c.id, err)
		}
		out := sb.String()
		for _, w := range c.want {
			if !strings.Contains(out, w) {
				t.Errorf("%s: output missing %q:\n%s", c.id, w, out)
			}
		}
	}
	// E10's agreement cells, with the timing and speedup columns masked.
	var sb strings.Builder
	if err := Run(&sb, Config{Quick: true, Only: "E10"}); err != nil {
		t.Fatalf("E10: %v", err)
	}
	for _, n := range []string{"8", "16"} {
		row := regexp.MustCompile(`(?m)^\| ` + n + ` \| [^|]+ \| [^|]+ \| true \| [^|]+ \|$`)
		if !row.MatchString(sb.String()) {
			t.Errorf("E10: no n = %s row agreeing on s:\n%s", n, sb.String())
		}
	}
}
