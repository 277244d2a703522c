// Package snapshot serializes aggregate Herbrand interpretations
// (relation.DB) together with cumulative evaluation statistics and a
// program fingerprint into a versioned, deterministic, self-checking
// binary format — the durable checkpoints behind crash-recoverable
// fixpoint evaluation.
//
// Soundness of resuming from a snapshot rests on the monotonicity of
// T_P (Ross & Sagiv §3–§4): every intermediate interpretation of a
// bottom-up solve lies between the EDB and the least fixpoint, so the
// fixpoint restarted from a checkpointed sub-model converges to the
// same least model as an uninterrupted run. The fingerprint — a SHA-256
// of the program's canonical printing, declarations included — makes
// the one unsound case (resuming against a *different* program)
// impossible to hit silently.
//
// # Format (version 2)
//
//	magic   "MDLSNAP" + version byte
//	payload fingerprint[32]
//	        stats: components, rounds, firings, derived (uvarint each)
//	        seq (uvarint): commit-sequence watermark
//	        npreds, then per predicate (sorted by key):
//	          key, flags (hasCost|hasDefault<<1), lattice name if cost,
//	          nrows, then per row (canonical row order):
//	            nargs, args..., cost if cost predicate
//	trailer SHA-256(magic ‖ payload)
//
// Decode accepts this version only: any other version byte, including
// the retired version 1 (no watermark), fails with ErrVersion.
//
// Values encode as a kind byte followed by a kind-specific body; sets
// encode their elements in canonical order, so equal interpretations
// encode to identical bytes. AppendVal and Decoder export this value
// codec: the write-ahead log's fact records (datalog.AppendFacts) are
// written in it too. The trailer detects truncation and bit
// rot; Decode additionally bounds every count against the bytes that
// remain, and never panics on arbitrary input.
package snapshot

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/ast"
	"repro/internal/lattice"
	"repro/internal/relation"
	"repro/internal/val"
)

// Version is the snapshot format version, the only one Decode accepts.
const Version = 2

const magic = "MDLSNAP"

// Error classes, testable with errors.Is on anything Decode or a sink
// returns.
var (
	// ErrCorrupt marks a snapshot that is not decodable: wrong magic,
	// failed checksum (truncation, bit rot, torn write), or structurally
	// inconsistent contents.
	ErrCorrupt = errors.New("snapshot: corrupt or truncated checkpoint")
	// ErrVersion marks a snapshot written by an incompatible format
	// version.
	ErrVersion = errors.New("snapshot: unsupported format version")
	// ErrFingerprint marks a snapshot whose program fingerprint does not
	// match the program it is being restored against; resuming it would
	// silently compute a model of the wrong program.
	ErrFingerprint = errors.New("snapshot: program fingerprint mismatch")
)

// Stats mirrors the engine's cumulative counters without importing it
// (snapshot is a leaf package usable below core).
type Stats struct {
	Components int
	Rounds     int
	Firings    int64
	Derived    int64
}

// Snapshot is one durable checkpoint: the interpretation, the work done
// to reach it, and the identity of the program that produced it.
type Snapshot struct {
	Fingerprint [32]byte
	Stats       Stats
	// Seq is the serve tier's commit-sequence watermark: the snapshot
	// subsumes every logged assert batch with sequence number ≤ Seq, so
	// WAL replay over it starts at Seq+1 and compaction may drop
	// segments it covers. 0 for engine checkpoints taken mid-solve.
	Seq uint64
	DB  *relation.DB
}

// Fingerprint hashes a program's canonical printing — rules,
// constraints and declarations — so that a checkpoint can never be
// resumed against a different program.
func Fingerprint(prog *ast.Program) [32]byte {
	return sha256.Sum256(prog.AppendText(nil))
}

// Encode serializes s deterministically: equal snapshots (same
// interpretation, stats and fingerprint) produce identical bytes.
func Encode(s *Snapshot) []byte {
	var b bytes.Buffer
	b.WriteString(magic)
	b.WriteByte(Version)
	b.Write(s.Fingerprint[:])
	putUvarint(&b, uint64(s.Stats.Components))
	putUvarint(&b, uint64(s.Stats.Rounds))
	putUvarint(&b, uint64(s.Stats.Firings))
	putUvarint(&b, uint64(s.Stats.Derived))
	putUvarint(&b, s.Seq)

	// Only non-empty relations are written: lazily materialized empty
	// relations carry no information, and skipping them makes encoding
	// insensitive to which predicates happen to have been touched.
	var preds []ast.PredKey
	if s.DB != nil {
		for _, k := range s.DB.Preds() {
			if s.DB.Rel(k).Len() > 0 {
				preds = append(preds, k)
			}
		}
	}
	putUvarint(&b, uint64(len(preds)))
	for _, k := range preds {
		r := s.DB.Rel(k)
		putString(&b, string(k))
		var flags byte
		if r.Info.HasCost {
			flags |= 1
		}
		if r.Info.HasDefault {
			flags |= 2
		}
		b.WriteByte(flags)
		if r.Info.HasCost {
			putString(&b, r.Info.L.Name())
		}
		putUvarint(&b, uint64(r.Len()))
		for _, row := range r.Rows() {
			putUvarint(&b, uint64(len(row.Args)))
			for _, a := range row.Args {
				b.Write(AppendVal(b.AvailableBuffer(), a))
			}
			if r.Info.HasCost {
				b.Write(AppendVal(b.AvailableBuffer(), row.Cost))
			}
		}
	}
	sum := sha256.Sum256(b.Bytes())
	b.Write(sum[:])
	return b.Bytes()
}

// putUvarint and putString write to b as Encode writes values: appended
// in b's free space, with no scratch buffer in between.
func putUvarint(b *bytes.Buffer, v uint64) {
	b.Write(binary.AppendUvarint(b.AvailableBuffer(), v))
}

func putString(b *bytes.Buffer, s string) {
	b.Write(AppendText(b.AvailableBuffer(), s))
}

// Decode parses a snapshot. schemas, when non-nil, supplies the
// authoritative PredInfo for predicates it knows (so restored relations
// share the engine's schema objects); predicates missing from it are
// reconstructed from the encoded metadata. The caller's schema map is
// never mutated. Decode never panics, whatever the input.
func Decode(data []byte, schemas ast.Schemas) (*Snapshot, error) {
	if len(data) < len(magic)+1+sha256.Size {
		return nil, fmt.Errorf("%w: %d bytes is too short", ErrCorrupt, len(data))
	}
	if string(data[:len(magic)]) != magic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	version := data[len(magic)]
	if version != Version {
		return nil, fmt.Errorf("%w: got version %d, support version %d", ErrVersion, version, Version)
	}
	payload, trailer := data[:len(data)-sha256.Size], data[len(data)-sha256.Size:]
	if sum := sha256.Sum256(payload); !bytes.Equal(sum[:], trailer) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}

	d := NewDecoder(payload[len(magic)+1:])
	s := &Snapshot{}
	if n := copy(s.Fingerprint[:], d.buf); n < len(s.Fingerprint) {
		return nil, d.corrupt("fingerprint")
	}
	d.buf = d.buf[len(s.Fingerprint):]
	var err error
	if s.Stats, err = d.stats(); err != nil {
		return nil, err
	}
	if s.Seq, err = d.uvarint("commit watermark"); err != nil {
		return nil, err
	}

	// Schema map for the restored DB: seeded from the caller's (shared
	// PredInfo pointers, fresh map) so relation.DB can materialize
	// lazily without touching the original.
	sc := ast.Schemas{}
	for k, pi := range schemas {
		sc[k] = pi
	}
	db := relation.NewDB(sc)
	s.DB = db

	npreds, err := d.Count("predicates")
	if err != nil {
		return nil, err
	}
	for i := 0; i < npreds; i++ {
		if err := d.relation(db, schemas); err != nil {
			return nil, err
		}
	}
	if len(d.buf) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(d.buf))
	}
	return s, nil
}

// Verify checks a decoded snapshot against the fingerprint of the
// program it is about to be resumed into.
func (s *Snapshot) Verify(fingerprint [32]byte) error {
	if s.Fingerprint != fingerprint {
		return fmt.Errorf("%w: checkpoint is from program %x…, resuming program %x…",
			ErrFingerprint, s.Fingerprint[:6], fingerprint[:6])
	}
	return nil
}

// maxSetDepth bounds nested-set recursion while decoding, so a
// pathological input cannot overflow the stack.
const maxSetDepth = 64

// Decoder reads the snapshot encoding from a byte slice: the value codec
// (Val, the inverse of AppendVal) and the counts and texts around it. The
// serve tier's write-ahead log reads its fact records with it. Every
// method fails with ErrCorrupt on input it cannot decode and never
// panics.
type Decoder struct {
	buf []byte
}

// NewDecoder returns a Decoder reading buf.
func NewDecoder(buf []byte) *Decoder { return &Decoder{buf: buf} }

// Len returns the number of bytes not yet read.
func (d *Decoder) Len() int { return len(d.buf) }

func (d *Decoder) corrupt(what string) error {
	return fmt.Errorf("%w: truncated %s", ErrCorrupt, what)
}

// uvarint reads one uvarint; what names it in the error.
func (d *Decoder) uvarint(what string) (uint64, error) {
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		return 0, d.corrupt(what)
	}
	d.buf = d.buf[n:]
	return v, nil
}

// Count reads a uvarint that counts upcoming encoded items; since every
// item occupies at least one byte, a count exceeding the remaining
// bytes is corrupt (and this bound keeps allocations proportional to
// the input).
func (d *Decoder) Count(what string) (int, error) {
	v, err := d.uvarint(what)
	if err != nil {
		return 0, err
	}
	if v > uint64(len(d.buf)) {
		return 0, fmt.Errorf("%w: %s count %d exceeds %d remaining bytes", ErrCorrupt, what, v, len(d.buf))
	}
	return int(v), nil
}

// Text reads a text written by AppendText. The result aliases the
// decoder's input.
func (d *Decoder) Text(what string) ([]byte, error) {
	n, err := d.Count(what)
	if err != nil {
		return nil, err
	}
	t := d.buf[:n:n]
	d.buf = d.buf[n:]
	return t, nil
}

func (d *Decoder) string(what string) (string, error) {
	t, err := d.Text(what)
	return string(t), err
}

func (d *Decoder) byte(what string) (byte, error) {
	if len(d.buf) == 0 {
		return 0, d.corrupt(what)
	}
	b := d.buf[0]
	d.buf = d.buf[1:]
	return b, nil
}

func (d *Decoder) stats() (Stats, error) {
	var st Stats
	comp, err := d.uvarint("stats")
	if err != nil {
		return st, err
	}
	rounds, err := d.uvarint("stats")
	if err != nil {
		return st, err
	}
	firings, err := d.uvarint("stats")
	if err != nil {
		return st, err
	}
	derived, err := d.uvarint("stats")
	if err != nil {
		return st, err
	}
	const maxInt = uint64(^uint(0) >> 1)
	if comp > maxInt || rounds > maxInt || firings > math.MaxInt64 || derived > math.MaxInt64 {
		return st, fmt.Errorf("%w: stats counter overflow", ErrCorrupt)
	}
	st.Components, st.Rounds = int(comp), int(rounds)
	st.Firings, st.Derived = int64(firings), int64(derived)
	return st, nil
}

func (d *Decoder) relation(db *relation.DB, schemas ast.Schemas) error {
	keyStr, err := d.string("predicate key")
	if err != nil {
		return err
	}
	flags, err := d.byte("predicate flags")
	if err != nil {
		return err
	}
	hasCost := flags&1 != 0
	hasDefault := flags&2 != 0
	if flags > 3 || (hasDefault && !hasCost) {
		// A default requires a cost lattice (§2.3.2); no real schema
		// encodes this, and a nil lattice would crash the relation.
		return fmt.Errorf("%w: bad flags %#x for %s", ErrCorrupt, flags, keyStr)
	}
	var l lattice.Lattice
	if hasCost {
		name, err := d.string("lattice name")
		if err != nil {
			return err
		}
		var ok bool
		if l, ok = lattice.ByName(name); !ok {
			return fmt.Errorf("%w: unknown lattice %q for %s", ErrCorrupt, name, keyStr)
		}
	}

	name, arity, err := splitKey(keyStr)
	if err != nil {
		return err
	}
	key := ast.MakePredKey(name, arity)
	if db.Has(key) {
		return fmt.Errorf("%w: duplicate predicate %s", ErrCorrupt, key)
	}
	pi := schemas.Info(key)
	if pi != nil {
		// The caller's schema is authoritative; the encoded metadata
		// must agree with it or the snapshot belongs to another program.
		if pi.HasCost != hasCost || pi.HasDefault != hasDefault ||
			(hasCost && pi.L.Name() != l.Name()) {
			return fmt.Errorf("%w: schema of %s disagrees with the program", ErrCorrupt, key)
		}
	} else {
		pi = &ast.PredInfo{Key: key, Arity: arity, HasCost: hasCost, HasDefault: hasDefault, L: l}
		db.Schemas[key] = pi
	}

	rel := db.Rel(key)
	nrows, err := d.Count("rows")
	if err != nil {
		return err
	}
	wantArgs := arity
	if hasCost {
		wantArgs = arity - 1
	}
	// nrows is bounded by the input's length (count), so reserving for it
	// cannot be inflated past the snapshot's own size. Each row decodes
	// into one scratch tuple, which the insert copies into the arena.
	rel.Reserve(nrows)
	var args []val.T
	for i := 0; i < nrows; i++ {
		nargs, err := d.Count("arguments")
		if err != nil {
			return err
		}
		if nargs != wantArgs {
			return fmt.Errorf("%w: %s row has %d arguments, want %d", ErrCorrupt, key, nargs, wantArgs)
		}
		if args == nil {
			args = make([]val.T, nargs)
		}
		for j := range args {
			if args[j], err = d.Val(); err != nil {
				return err
			}
		}
		cost := lattice.Elem{}
		if hasCost {
			if cost, err = d.Val(); err != nil {
				return err
			}
			if !pi.L.Contains(cost) {
				return fmt.Errorf("%w: cost %s of %s outside lattice %s", ErrCorrupt, cost, key, pi.L.Name())
			}
		}
		rel.InsertJoin(args, cost)
	}
	if rel.Len() != nrows {
		// Duplicate rows, or virtual default rows stored in the core:
		// neither is producible by Encode.
		return fmt.Errorf("%w: %s declared %d rows, stored %d", ErrCorrupt, key, nrows, rel.Len())
	}
	return nil
}

// Val reads one value written by AppendVal. A symbol or string already
// interned costs no allocation; NaN, which no value written by AppendVal
// holds, is refused.
func (d *Decoder) Val() (val.T, error) { return d.val(0) }

func (d *Decoder) val(depth int) (val.T, error) {
	if depth > maxSetDepth {
		return val.T{}, fmt.Errorf("%w: set nesting exceeds depth %d", ErrCorrupt, maxSetDepth)
	}
	kind, err := d.byte("value kind")
	if err != nil {
		return val.T{}, err
	}
	switch k := val.Kind(kind); k {
	case val.Sym, val.Str:
		t, err := d.Text("value text")
		if err != nil {
			return val.T{}, err
		}
		return val.TextBytes(k, t), nil
	case val.Num:
		if len(d.buf) < 8 {
			return val.T{}, d.corrupt("number")
		}
		bits := binary.BigEndian.Uint64(d.buf)
		d.buf = d.buf[8:]
		n := math.Float64frombits(bits)
		if math.IsNaN(n) {
			return val.T{}, fmt.Errorf("%w: NaN numeric value", ErrCorrupt)
		}
		return val.Number(n), nil
	case val.Bool:
		b, err := d.byte("boolean")
		if err != nil {
			return val.T{}, err
		}
		if b > 1 {
			return val.T{}, fmt.Errorf("%w: boolean byte %d", ErrCorrupt, b)
		}
		return val.Boolean(b == 1), nil
	case val.SetKind:
		n, err := d.Count("set elements")
		if err != nil {
			return val.T{}, err
		}
		elems := make([]val.T, n)
		for i := range elems {
			if elems[i], err = d.val(depth + 1); err != nil {
				return val.T{}, err
			}
		}
		return val.NewSet(elems).Value(), nil
	}
	return val.T{}, fmt.Errorf("%w: unknown value kind %d", ErrCorrupt, kind)
}

// AppendVal appends the encoding of v to dst: a kind byte, then a
// symbol's or string's text (AppendText), a number's IEEE 754 bits (8
// bytes, big-endian), a boolean byte, or a set's element count and its
// elements in canonical order, so equal values encode alike.
func AppendVal(dst []byte, v val.T) []byte {
	dst = append(dst, byte(v.Kind()))
	switch v.Kind() {
	case val.Sym, val.Str:
		dst = AppendText(dst, v.Text())
	case val.Num:
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(v.Num()))
	case val.Bool:
		if v.Bool() {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 0)
		}
	case val.SetKind:
		elems := v.Set().Elems() // already in canonical order
		dst = binary.AppendUvarint(dst, uint64(len(elems)))
		for _, e := range elems {
			dst = AppendVal(dst, e)
		}
	}
	return dst
}

// AppendText appends s as a uvarint length and its bytes.
func AppendText(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// splitKey parses "name/arity" back into its parts.
func splitKey(s string) (string, int, error) {
	i := strings.LastIndexByte(s, '/')
	if i <= 0 {
		return "", 0, fmt.Errorf("%w: bad predicate key %q", ErrCorrupt, s)
	}
	arity, err := strconv.Atoi(s[i+1:])
	if err != nil || arity < 0 {
		return "", 0, fmt.Errorf("%w: bad predicate key %q", ErrCorrupt, s)
	}
	return s[:i], arity, nil
}

// Equal reports whether two snapshots carry the same fingerprint,
// stats, watermark and interpretation (lattice equality on every
// relation).
func Equal(a, b *Snapshot) bool {
	return a.Fingerprint == b.Fingerprint && a.Stats == b.Stats && a.Seq == b.Seq && a.DB.Equal(b.DB, nil)
}
