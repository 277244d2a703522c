package programs_test

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/parser"
	"repro/internal/programs"
)

// TestMDLFilesMatchPrograms binds the runnable examples/programs/*.mdl
// files to this package: each file's declarations, constraints and
// rules print exactly as its constant's do. The files also carry facts
// and comments, which are set aside.
func TestMDLFilesMatchPrograms(t *testing.T) {
	for file, src := range map[string]string{
		"shortestpath.mdl":   programs.ShortestPath,
		"party.mdl":          programs.Party,
		"circuit.mdl":        programs.Circuit,
		"companycontrol.mdl": programs.CompanyControl,
	} {
		text, err := os.ReadFile(filepath.Join("..", "..", "examples", "programs", file))
		if err != nil {
			t.Fatal(err)
		}
		if got, want := rulesOf(t, file, string(text)), rulesOf(t, "constant", src); got != want {
			t.Errorf("%s drifted from its constant in internal/programs:\nfile:\n%s\nconstant:\n%s", file, got, want)
		}
	}
}

// rulesOf parses src and prints it without its facts.
func rulesOf(t *testing.T, name, src string) string {
	t.Helper()
	p, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	p.Facts = nil
	return p.String()
}
