package snapshot

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/ast"
	"repro/internal/faults"
	"repro/internal/lattice"
	"repro/internal/parser"
	"repro/internal/relation"
	"repro/internal/val"
)

// testDB builds an interpretation exercising every value kind and both
// cost and non-cost relations, including a set-valued cost lattice and
// a default-value predicate.
func testDB(t *testing.T) (*relation.DB, ast.Schemas) {
	t.Helper()
	schemas := ast.Schemas{
		"edge/2": {Key: "edge/2", Arity: 2},
		"sp/3":   {Key: "sp/3", Arity: 3, HasCost: true, L: lattice.MinReal},
		"on/2":   {Key: "on/2", Arity: 2, HasCost: true, HasDefault: true, L: lattice.BoolOr},
		"rch/2":  {Key: "rch/2", Arity: 2, HasCost: true, L: lattice.SetUnion},
	}
	db := relation.NewDB(schemas)
	db.Rel("edge/2").InsertJoin([]val.T{val.Symbol("a"), val.String("b c")}, lattice.Elem{})
	db.Rel("edge/2").InsertJoin([]val.T{val.Number(-1.5), val.Boolean(true)}, lattice.Elem{})
	db.Rel("sp/3").InsertJoin([]val.T{val.Symbol("a"), val.Symbol("b")}, val.Number(3))
	db.Rel("sp/3").InsertJoin([]val.T{val.Symbol("a"), val.Symbol("c")}, val.Number(lattice.Inf))
	db.Rel("on/2").InsertJoin([]val.T{val.Symbol("w")}, val.Boolean(true))
	db.Rel("rch/2").InsertJoin([]val.T{val.Symbol("a")},
		val.SetOf(val.Symbol("x"), val.Number(2), val.SetOf(val.Symbol("nested"))))
	db.Rel("rch/2").InsertJoin([]val.T{val.Symbol("b")}, val.SetOf())
	return db, schemas
}

func testSnapshot(t *testing.T) (*Snapshot, ast.Schemas) {
	db, schemas := testDB(t)
	s := &Snapshot{Stats: Stats{Components: 2, Rounds: 7, Firings: 123, Derived: 45}, DB: db}
	for i := range s.Fingerprint {
		s.Fingerprint[i] = byte(i)
	}
	return s, schemas
}

func TestRoundTrip(t *testing.T) {
	s, schemas := testSnapshot(t)
	data := Encode(s)
	got, err := Decode(data, schemas)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !Equal(s, got) {
		t.Fatalf("round trip changed the snapshot:\n%s\nvs\n%s", s.DB, got.DB)
	}
	if got.Stats != s.Stats {
		t.Fatalf("stats %+v, want %+v", got.Stats, s.Stats)
	}
	// Relations restored for predicates the caller's schema knows must
	// share the schema's PredInfo.
	if got.DB.Rel("sp/3").Info != schemas["sp/3"] {
		t.Fatal("restored relation does not share the caller's PredInfo")
	}
	// Re-encoding the decoded snapshot must be byte-identical.
	if !bytes.Equal(Encode(got), data) {
		t.Fatal("encode∘decode is not the identity on bytes")
	}
}

func TestRoundTripWithoutSchemas(t *testing.T) {
	s, _ := testSnapshot(t)
	got, err := Decode(Encode(s), nil)
	if err != nil {
		t.Fatalf("decode without schemas: %v", err)
	}
	if !Equal(s, got) {
		t.Fatal("schema-free round trip changed the snapshot")
	}
}

func TestEncodeDeterministic(t *testing.T) {
	s, _ := testSnapshot(t)
	a, b := Encode(s), Encode(s)
	if !bytes.Equal(a, b) {
		t.Fatal("two encodings of the same snapshot differ")
	}
	// An equal DB built in a different insertion order encodes the same.
	db2, _ := testDB(t)
	db2.Rel("zzz/1") // extra *empty* relation must not change the bytes
	s2 := &Snapshot{Fingerprint: s.Fingerprint, Stats: s.Stats, DB: db2}
	if !bytes.Equal(Encode(s2), a) {
		t.Fatal("empty relations or construction order leaked into the encoding")
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	s, schemas := testSnapshot(t)
	data := Encode(s)
	cases := map[string][]byte{
		"empty":     {},
		"short":     data[:10],
		"truncated": data[:len(data)-5],
		"bad magic": append([]byte("XXXXXXX"), data[7:]...),
	}
	flipped := append([]byte{}, data...)
	flipped[len(flipped)/2] ^= 0x40
	cases["bit flip"] = flipped
	for name, b := range cases {
		if _, err := Decode(b, schemas); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
	bad := append([]byte{}, data...)
	bad[len(magic)] = 99 // version byte
	if _, err := Decode(bad, schemas); !errors.Is(err, ErrVersion) {
		t.Errorf("version: err = %v, want ErrVersion", err)
	}
}

func TestDecodeRejectsSchemaMismatch(t *testing.T) {
	s, _ := testSnapshot(t)
	data := Encode(s)
	other := ast.Schemas{
		"sp/3": {Key: "sp/3", Arity: 3, HasCost: true, L: lattice.MaxReal},
	}
	if _, err := Decode(data, other); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("lattice mismatch: err = %v, want ErrCorrupt", err)
	}
}

func TestVerifyFingerprint(t *testing.T) {
	s, _ := testSnapshot(t)
	if err := s.Verify(s.Fingerprint); err != nil {
		t.Fatalf("matching fingerprint rejected: %v", err)
	}
	var other [32]byte
	if err := s.Verify(other); !errors.Is(err, ErrFingerprint) {
		t.Fatalf("mismatch: err = %v, want ErrFingerprint", err)
	}
}

func TestFingerprintCoversDeclarations(t *testing.T) {
	a := &ast.Program{CostDecls: []ast.CostDecl{{Pred: "p/2", Lattice: "minreal"}}}
	b := &ast.Program{CostDecls: []ast.CostDecl{{Pred: "p/2", Lattice: "maxreal"}}}
	if Fingerprint(a) == Fingerprint(b) {
		t.Fatal("fingerprint ignores declarations")
	}
}

func TestFileSinkAtomicReplace(t *testing.T) {
	s, schemas := testSnapshot(t)
	path := filepath.Join(t.TempDir(), "ckpt.snap")
	sink := &FileSink{Path: path}
	if err := sink.Write(s); err != nil {
		t.Fatal(err)
	}
	// Second write replaces the first atomically; the file must decode.
	s.Stats.Rounds++
	if err := sink.Write(s); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path, schemas)
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats.Rounds != s.Stats.Rounds {
		t.Fatalf("read back rounds %d, want %d", got.Stats.Rounds, s.Stats.Rounds)
	}
	// No temp droppings left behind.
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("left %d entries in the sink directory, want 1", len(entries))
	}
}

func TestFileSinkInjectedWriteFailure(t *testing.T) {
	faults.Reset()
	t.Cleanup(faults.Reset)
	s, _ := testSnapshot(t)
	path := filepath.Join(t.TempDir(), "ckpt.snap")
	sink := &FileSink{Path: path}
	if err := sink.Write(s); err != nil {
		t.Fatal(err)
	}
	faults.Arm(faults.Fault{Point: faults.SnapshotSinkWrite, Sticky: true})
	if err := sink.Write(s); !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("err = %v, want injected", err)
	}
	// The previous checkpoint must have survived the failed write.
	if _, err := ReadFile(path, nil); err != nil {
		t.Fatalf("previous checkpoint destroyed: %v", err)
	}
}

func TestReadFileShortRead(t *testing.T) {
	faults.Reset()
	t.Cleanup(faults.Reset)
	s, schemas := testSnapshot(t)
	path := filepath.Join(t.TempDir(), "ckpt.snap")
	if err := WriteFile(path, s); err != nil {
		t.Fatal(err)
	}
	faults.Arm(faults.Fault{Point: faults.SnapshotRestoreRead})
	if _, err := ReadFile(path, schemas); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("short read: err = %v, want ErrCorrupt", err)
	}
	// Disarmed again, the file is intact.
	if _, err := ReadFile(path, schemas); err != nil {
		t.Fatal(err)
	}
}

func TestSeqWatermarkRoundTrip(t *testing.T) {
	s, schemas := testSnapshot(t)
	s.Seq = 1<<40 + 17
	got, err := Decode(Encode(s), schemas)
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != s.Seq {
		t.Fatalf("seq %d, want %d", got.Seq, s.Seq)
	}
	if !Equal(s, got) {
		t.Fatal("round trip changed the snapshot")
	}
	// Seq participates in Equal.
	got.Seq++
	if Equal(s, got) {
		t.Fatal("Equal ignored the commit watermark")
	}
}

// TestDecodeRejectsVersion1: the version-1 reader is retired, so a
// well-formed version-1 payload (no watermark, valid trailer) fails with
// ErrVersion rather than decoding.
func TestDecodeRejectsVersion1(t *testing.T) {
	s, schemas := testSnapshot(t)
	data := Encode(s)
	// Build the equivalent version-1 bytes by hand: drop the Seq
	// uvarint (a single zero byte here — every stat in testSnapshot is
	// below 128, so the four stats uvarints are one byte each), rewrite
	// the version byte, and recompute the trailer.
	seqOff := len(magic) + 1 + len(s.Fingerprint) + 4
	payload := append([]byte{}, data[:len(data)-32]...)
	if payload[seqOff] != 0 {
		t.Fatalf("expected zero Seq uvarint at offset %d, got %d", seqOff, payload[seqOff])
	}
	v1 := append(payload[:seqOff], payload[seqOff+1:]...)
	v1[len(magic)] = 1
	sum := sha256.Sum256(v1)
	v1 = append(v1, sum[:]...)
	if _, err := Decode(v1, schemas); !errors.Is(err, ErrVersion) {
		t.Fatalf("decoding a version-1 snapshot: err = %v, want ErrVersion", err)
	}
}

func TestFileSinkDirSyncFailure(t *testing.T) {
	faults.Reset()
	t.Cleanup(faults.Reset)
	s, schemas := testSnapshot(t)
	path := filepath.Join(t.TempDir(), "ckpt.snap")
	faults.Arm(faults.Fault{Point: faults.SnapshotDirSync, Sticky: true})
	if err := WriteFile(path, s); !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("err = %v, want injected dir-sync failure", err)
	}
	faults.Reset()
	if err := WriteFile(path, s); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(path, schemas); err != nil {
		t.Fatal(err)
	}
}

// TestFingerprintIsStable pins the fingerprint of a shipped example:
// checkpoints and write-ahead-log segments on disk carry it, so a change
// to how a program renders (ast.Program.AppendText) must not move it.
func TestFingerprintIsStable(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("..", "..", "examples", "programs", "shortestpath.mdl"))
	if err != nil {
		t.Fatal(err)
	}
	prog, err := parser.Parse(string(src))
	if err != nil {
		t.Fatal(err)
	}
	const want = "b6422c4bb92f5127275562535359a72bd777a29b11f76cc0d6cfb1695ef01a64"
	if got := fmt.Sprintf("%x", Fingerprint(prog)); got != want {
		t.Fatalf("fingerprint of shortestpath.mdl = %s, want %s", got, want)
	}
	if got := sha256.Sum256([]byte(prog.String())); got != Fingerprint(prog) {
		t.Fatal("fingerprint is no longer the hash of the program's canonical printing")
	}
}
