package core

import (
	goast "go/ast"
	goparser "go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/exec"
	"repro/internal/programs"
)

// driverTableSources returns the programs datalog/drivers_test.go writes
// inline in its differential table: every string literal given as a
// src field.
func driverTableSources(t *testing.T) map[string]string {
	t.Helper()
	f, err := goparser.ParseFile(token.NewFileSet(), filepath.Join("..", "..", "datalog", "drivers_test.go"), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	goast.Inspect(f, func(n goast.Node) bool {
		kv, ok := n.(*goast.KeyValueExpr)
		if !ok {
			return true
		}
		key, ok := kv.Key.(*goast.Ident)
		lit, isLit := kv.Value.(*goast.BasicLit)
		if ok && key.Name == "src" && isLit && lit.Kind == token.STRING {
			src, err := strconv.Unquote(lit.Value)
			if err != nil {
				t.Fatal(err)
			}
			out["drivers_test.go:"+strconv.Itoa(len(out))] = src
		}
		return true
	})
	if len(out) == 0 {
		t.Fatal("no inline program found in datalog/drivers_test.go")
	}
	return out
}

// TestEveryLaterScanHasADriverOrder: moving a scan to position 0 only
// binds variables earlier, so every step stays runnable and every γ
// conjunction keeps a valid order; every scan at canonical position
// k > 0 therefore has a Δ-driver order, and a Δ pass always runs its
// restricted scan first. Checked on every plan compiled from
// internal/programs, examples/programs/*.mdl and the inline programs of
// datalog/drivers_test.go.
func TestEveryLaterScanHasADriverOrder(t *testing.T) {
	srcs := map[string]string{
		"ShortestPath":        programs.ShortestPath,
		"CompanyControl":      programs.CompanyControl,
		"CompanyControlFused": programs.CompanyControlFused,
		"Party":               programs.Party,
		"Circuit":             programs.Circuit,
		"Halfsum":             programs.Halfsum,
		"TwoMinimalModels":    programs.TwoMinimalModels,
		"Averages":            programs.Averages,
	}
	files, err := filepath.Glob(filepath.Join("..", "..", "examples", "programs", "*.mdl"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no example programs (%v)", err)
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		srcs[filepath.Base(f)] = string(src)
	}
	for name, src := range driverTableSources(t) {
		srcs[name] = src
	}
	later := 0
	for name, src := range srcs {
		// SkipChecks compiles every component, the inadmissible ones too.
		en := mustEngine(t, src, Options{SkipChecks: true})
		for _, ps := range en.plans {
			for _, p := range ps {
				for k := range p.steps {
					if p.steps[k].Kind != exec.ScanKind {
						continue
					}
					d := p.deltaPipe(k)
					if d == nil || d.canon[0] != k || len(d.canon) != len(p.steps) {
						t.Fatalf("%s: %s: the scan at canonical step %d has no Δ-driver order", name, p.text, k)
					}
					if k > 0 {
						later++
					}
				}
			}
		}
	}
	if later == 0 {
		t.Fatal("no scan at a canonical position past 0: the check is vacuous")
	}
}
