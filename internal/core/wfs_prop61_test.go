package core_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/programs"
	"repro/internal/stable"
)

// TestProposition61OnRandomDAGs property-checks Proposition 6.1's strong
// form for modularly stratified instances: on random layered DAGs the
// Kemp–Stuckey well-founded model is two-valued and coincides with the
// monotonic minimal model.
func TestProposition61OnRandomDAGs(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := gen.Graph(gen.LayeredDAG, 8+r.Intn(8), 20+r.Intn(20), 9, seed)
		src := programs.ShortestPath + gen.GraphFacts(g)
		prog := mustParse(t, src)
		res, err := core.SolveWFS(prog, core.WFSOptions{})
		if err != nil {
			t.Errorf("seed %d: %v", seed, err)
			return false
		}
		if !res.TwoValued() {
			t.Errorf("seed %d: %d undefined atoms on a DAG", seed, res.UndefinedCount())
			return false
		}
		en, err := core.New(prog, core.Options{})
		if err != nil {
			t.Errorf("seed %d: %v", seed, err)
			return false
		}
		m, _, err := en.Solve(nil)
		if err != nil {
			t.Errorf("seed %d: %v", seed, err)
			return false
		}
		if !core.FlattenCosts(m).Equal(res.True, nil) {
			t.Errorf("seed %d: WFS and minimal model disagree", seed)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// TestLeastModelStableOnRandomDAGs: the minimal model of a modularly
// stratified instance is Kemp–Stuckey stable (the §5.3 positive case, on
// random instances).
func TestLeastModelStableOnRandomDAGs(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := gen.Graph(gen.LayeredDAG, 6+r.Intn(6), 12+r.Intn(12), 9, seed)
		src := programs.ShortestPath + gen.GraphFacts(g)
		prog := mustParse(t, src)
		en, err := core.New(prog, core.Options{})
		if err != nil {
			t.Errorf("seed %d: %v", seed, err)
			return false
		}
		m, _, err := en.Solve(nil)
		if err != nil {
			t.Errorf("seed %d: %v", seed, err)
			return false
		}
		ok, err := stable.IsStable(prog, core.FlattenCosts(m), core.WFSOptions{})
		if err != nil {
			t.Errorf("seed %d: %v", seed, err)
			return false
		}
		if !ok {
			t.Errorf("seed %d: least model not stable on a DAG", seed)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}
