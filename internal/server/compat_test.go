package server

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"repro/datalog"
	"repro/internal/gen"
	"repro/internal/programs"
	"repro/internal/wal"
)

// compatCase is one program whose solved model's bytes are pinned: the
// examples of internal/programs with an EDB each, plus a program whose
// model holds strings, nested sets and infinities.
type compatCase struct {
	name, src string
	opts      datalog.Options
}

var compatCases = []compatCase{
	{"shortestpath", programs.ShortestPath + gen.GraphFacts(gen.Graph(gen.CycleGraph, 10, 16, 9, 3)), datalog.Options{}},
	{"companycontrol", programs.CompanyControl + gen.OwnershipFacts(gen.Ownership(8, 3, true, 5)), datalog.Options{}},
	{"companycontrolfused", programs.CompanyControlFused + "s(a, b, 0.6). s(a, c, 0.3). s(b, c, 0.3).", datalog.Options{}},
	{"party", programs.Party + gen.PartyFacts(gen.Party(24, 3, 2, 8)), datalog.Options{}},
	{"circuit", programs.Circuit + "input(w2, 0). input(w1, 1). gate(g1, and). connect(g1, w1). connect(g1, w2). " +
		"gate(g2, or). connect(g2, w1). connect(g2, g1).", datalog.Options{}},
	{"halfsum", programs.Halfsum, datalog.Options{Epsilon: 1e-9}},
	{"twominimalmodels", programs.TwoMinimalModels, datalog.Options{SkipChecks: true}},
	{"averages", programs.Averages + "record(john, math, 80). record(john, physics, 60). record(mary, math, 90). " +
		"courses(math). courses(physics). courses(art).", datalog.Options{}},
	{"sets", `
.cost r/2 : setunion.
.cost u/1 : setunion.
r(a, {b, c}). r(d, {"x y", 2.5}). r(b, {}). r(c, {{a}, -inf, "b"}). r("q", {inf}).
u(S) :- S ?= union T : r(X, T).
`, datalog.Options{}},
}

// compatDigests solves each case and returns the SHA-256 of its model's
// snapshot and of a WAL segment logging the model's facts (one batch per
// predicate), keyed "<case>/snapshot" and "<case>/wal".
func compatDigests(t *testing.T) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, c := range compatCases {
		p, err := datalog.Load(c.src, c.opts)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		m, _, err := p.Solve()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		snap := sha256.Sum256(m.Snapshot())
		out[c.name+"/snapshot"] = hex.EncodeToString(snap[:])

		dir := t.TempDir()
		log, err := wal.Open(wal.Options{Dir: dir, Fingerprint: p.Fingerprint()})
		if err != nil {
			t.Fatal(err)
		}
		for i, pred := range m.Preds() {
			var facts []datalog.Fact
			for _, row := range m.Facts(pred) {
				facts = append(facts, datalog.NewFact(pred, row...))
			}
			if _, err := log.Append(uint64(i+1), encodeWALPayload(facts)); err != nil {
				t.Fatal(err)
			}
		}
		if err := log.Close(); err != nil {
			t.Fatal(err)
		}
		segs, err := filepath.Glob(filepath.Join(dir, "*.seg"))
		if err != nil || len(segs) != 1 {
			t.Fatalf("%s: segments %v, %v", c.name, segs, err)
		}
		b, err := os.ReadFile(segs[0])
		if err != nil {
			t.Fatal(err)
		}
		seg := sha256.Sum256(b)
		out[c.name+"/wal"] = hex.EncodeToString(seg[:])
	}
	return out
}

// compatPins are compatDigests as computed when values still held their
// strings and sets (48-byte values). Snapshot and WAL bytes encode text,
// never intern ids, so the value representation must not move them.
var compatPins = map[string]string{
	"averages/snapshot":            "3ae14dfa5e82048c10392a00892a98254b2fa79658c2ad9f4b9b89ca5a29673f",
	"averages/wal":                 "fbf542ca76cd6720df472d9d4e8d9055b9132185edd5b7188dc2c0a90efad6b7",
	"circuit/snapshot":             "32bafa8b7f07f49ca0b52be394affba6cbae397c9c634776b634bb15617a7b72",
	"circuit/wal":                  "c6e355702a8875895825d219b1dafd37e81d9eeccfe2ab0f2d72b5d65ec60c94",
	"companycontrol/snapshot":      "400d3e0e5f4ff271b5962625c08464c14fd0a73d9f1f16f6a6a17ebb49455da1",
	"companycontrol/wal":           "9d9d1c7da25601dd8603f6bddc68e43ab37e867f6b4de8e76cf3f2bbc7a5c5e3",
	"companycontrolfused/snapshot": "4ad22fcebe633a59acbe3ccd310d9e8ca3e58b1c2e8f6c3bc486411778cf4907",
	"companycontrolfused/wal":      "838c7bcd1fefe464810b196c290f643df7aa2f46a44bf8198ba0c8cbef4a4760",
	"halfsum/snapshot":             "422aad5f8589ea52809ac3b133d2f1bf6deca49b2a177f1173213ee204ce413b",
	"halfsum/wal":                  "970f6ce06c48a1e573d3991f7eb8d9dbbf0722e2b75dddbe184321de24e631fd",
	"party/snapshot":               "61a15a07778abd5aa0bf9356950fbfd050131fe6fa7f4835b74584dcdb233cc3",
	"party/wal":                    "46f86bbfff4163d3f2a21af0dd44048b6d4817f6f6bd4b1fdc49f11ff53c3c9d",
	"sets/snapshot":                "08d69055c3e2b53a80f7fc656f7cfdb37861b9aa75c6806cbc2002abc6dc145a",
	"sets/wal":                     "00682f2421d878d4d9c97b62bc48f871601690805af18d933b7e82990845e8c9",
	"shortestpath/snapshot":        "c3f61f9d2d55e54ebd0a7167f92afe11f88ac6e77c82272499ed51aab252c9a2",
	"shortestpath/wal":             "23f3df6f69418891c4e895e6ada1bbdcebd39d873b629d5272e030b08b4db66d",
	"twominimalmodels/snapshot":    "12ed2bff773c0dc8a0dc9d8f8de7ac2a1475bd0b4b1f71041790ff527c0f8e5a",
	"twominimalmodels/wal":         "a3312abfc0b7f9ed23cd08f728cfb68cad9fd3614832e49c603094bd3a33bae9",
}

// TestBytesMatchPreviousRepresentation holds snapshot and WAL bytes to
// the pins, byte for byte.
func TestBytesMatchPreviousRepresentation(t *testing.T) {
	got := compatDigests(t)
	for k, want := range compatPins {
		if got[k] != want {
			t.Errorf("%s: sha256 %s, pinned %s", k, got[k], want)
		}
	}
	if len(got) != len(compatPins) {
		t.Errorf("%d digests, %d pins", len(got), len(compatPins))
	}
}

// TestRestorePreviousSnapshot restores snapshots written when values
// still held their strings and sets (testdata/compat) and requires the
// model a fresh solve computes.
func TestRestorePreviousSnapshot(t *testing.T) {
	for _, c := range compatCases {
		path := filepath.Join("testdata", "compat", c.name+".snap")
		data, err := os.ReadFile(path)
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		p, err := datalog.Load(c.src, c.opts)
		if err != nil {
			t.Fatal(err)
		}
		restored, err := p.Restore(data)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		fresh, _, err := p.Solve()
		if err != nil {
			t.Fatal(err)
		}
		if restored.String() != fresh.String() {
			t.Errorf("%s restores to\n%s\nwant\n%s", path, restored, fresh)
		}
	}
}
