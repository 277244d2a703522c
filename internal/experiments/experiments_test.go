package experiments

import (
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
		{"E7", []string{"stable models found: 2", "M1 = {p(a), p(b), q(b)}"}},
		{"E8", []string{"| M1 (least) | 1 | true | true |", "| M2 | 0 | true | false |"}},
		{"E9", []string{"| shortest path, cyclic (Ex 3.1) | 4 | 4 | false |"}},
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
}
