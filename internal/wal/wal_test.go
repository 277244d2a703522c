package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/faults"
)

// testFP is the fingerprint used throughout; a second one exercises
// mismatch refusal.
var (
	testFP  = [32]byte{1, 2, 3, 4}
	otherFP = [32]byte{9, 9, 9, 9}
)

// collect replays the log into ordered (seq, payload) pairs.
func collect(t *testing.T, l *Log) (seqs []uint64, payloads [][]byte) {
	t.Helper()
	err := l.Replay(func(seq uint64, payload []byte) error {
		seqs = append(seqs, seq)
		payloads = append(payloads, append([]byte(nil), payload...))
		return nil
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	return seqs, payloads
}

// appendN appends records seq 1..n with deterministic payloads.
func appendN(t *testing.T, l *Log, from uint64, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		seq := from + uint64(i)
		if _, err := l.Append(seq, []byte(fmt.Sprintf("batch-%d", seq))); err != nil {
			t.Fatalf("append %d: %v", seq, err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatalf("sync: %v", err)
	}
}

func TestWALAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, Fingerprint: testFP})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 1, 5)
	if got := l.LastSeq(); got != 5 {
		t.Fatalf("LastSeq = %d, want 5", got)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(Options{Dir: dir, Fingerprint: testFP, StartSeq: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.LastSeq() != 5 || l2.FirstSeq() != 1 {
		t.Fatalf("reopened: first %d last %d, want 1..5", l2.FirstSeq(), l2.LastSeq())
	}
	seqs, payloads := collect(t, l2)
	if len(seqs) != 3 || seqs[0] != 3 || seqs[2] != 5 {
		t.Fatalf("replay after 2: seqs %v", seqs)
	}
	if string(payloads[0]) != "batch-3" {
		t.Fatalf("payload = %q", payloads[0])
	}
	// Appending continues the sequence after a reopen.
	if _, err := l2.Append(6, []byte("batch-6")); err != nil {
		t.Fatalf("append after reopen: %v", err)
	}
}

func TestWALContiguityEnforced(t *testing.T) {
	l, err := Open(Options{Dir: t.TempDir(), Fingerprint: testFP, StartSeq: 41})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := l.Append(41, nil); err == nil {
		t.Fatal("append at the watermark should fail")
	}
	if _, err := l.Append(43, nil); err == nil {
		t.Fatal("append past the next seq should fail")
	}
	if _, err := l.Append(42, []byte("x")); err != nil {
		t.Fatalf("append 42: %v", err)
	}
	// The first segment is named for the first record it holds.
	if l.Segments() != 1 || l.segments[0].name != segmentName(42) {
		t.Fatalf("segments = %v", l.segments)
	}
}

func TestWALRotationAndCompaction(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, Fingerprint: testFP, SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 1, 20)
	if l.Segments() < 3 {
		t.Fatalf("expected rotation, got %d segment(s)", l.Segments())
	}
	total := l.Segments()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Replay over a rotated log sees every record exactly once.
	l, err = Open(Options{Dir: dir, Fingerprint: testFP, SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	seqs, _ := collect(t, l)
	if len(seqs) != 20 || seqs[0] != 1 || seqs[19] != 20 {
		t.Fatalf("replay: %d records, first %d last %d", len(seqs), seqs[0], seqs[len(seqs)-1])
	}

	// Compacting at a mid watermark removes only wholly-subsumed
	// segments and keeps everything past the watermark replayable.
	removed, err := l.Compact(10)
	if err != nil {
		t.Fatal(err)
	}
	if removed == 0 || l.Segments() != total-removed {
		t.Fatalf("removed %d of %d", removed, total)
	}
	if l.FirstSeq() > 11 {
		t.Fatalf("FirstSeq %d after compacting to 10: acked history dropped", l.FirstSeq())
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l, err = Open(Options{Dir: dir, Fingerprint: testFP, SegmentBytes: 128, StartSeq: 10})
	if err != nil {
		t.Fatal(err)
	}
	seqs, _ = collect(t, l)
	if len(seqs) != 10 || seqs[0] != 11 {
		t.Fatalf("replay after compact: %v", seqs)
	}

	// Compacting at the head keeps the current segment.
	if _, err := l.Compact(l.LastSeq()); err != nil {
		t.Fatal(err)
	}
	if l.Segments() != 1 {
		t.Fatalf("%d segments after full compaction, want 1", l.Segments())
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(Options{Dir: dir, Fingerprint: testFP, SegmentBytes: 128})
	if err != nil {
		t.Fatalf("reopen after compaction: %v", err)
	}
	defer l2.Close()
	if l2.LastSeq() != 20 {
		t.Fatalf("LastSeq after reopen = %d", l2.LastSeq())
	}
}

// buildSegment assembles a segment image from whole-cloth.
func buildSegment(fp [32]byte, first uint64, payloads ...string) []byte {
	var b bytes.Buffer
	b.WriteString(magic)
	b.WriteByte(Version)
	b.Write(fp[:])
	for i, p := range payloads {
		b.Write(encodeFrame(first+uint64(i), []byte(p)))
	}
	return b.Bytes()
}

// writeSegment installs a raw segment image in dir.
func writeSegment(t *testing.T, dir string, first uint64, data []byte) string {
	t.Helper()
	path := filepath.Join(dir, segmentName(first))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestWALTornTailEveryPrefix is the satellite table test: every prefix
// of a multi-record segment must recover — retaining exactly the
// records wholly inside the prefix — and the repaired log must accept
// further appends. A prefix is precisely what an interrupted append
// sequence leaves behind.
func TestWALTornTailEveryPrefix(t *testing.T) {
	full := buildSegment(testFP, 1, "alpha", "beta", "gamma-longer", "d")
	// Record boundaries, for computing how many records a prefix keeps.
	bounds := []int{headerSize}
	for off := headerSize; off < len(full); {
		ln := int(uint32(full[off])<<24 | uint32(full[off+1])<<16 | uint32(full[off+2])<<8 | uint32(full[off+3]))
		off += frameSize + ln
		bounds = append(bounds, off)
	}
	for cut := 0; cut <= len(full); cut++ {
		t.Run(fmt.Sprintf("cut=%d", cut), func(t *testing.T) {
			dir := t.TempDir()
			writeSegment(t, dir, 1, full[:cut])
			l, err := Open(Options{Dir: dir, Fingerprint: testFP})
			if err != nil {
				t.Fatalf("Open on prefix %d: %v", cut, err)
			}
			defer l.Close()
			want := 0
			for _, b := range bounds[1:] {
				if cut >= b {
					want++
				}
			}
			seqs, _ := collect(t, l)
			if len(seqs) != want {
				t.Fatalf("prefix %d: recovered %d records, want %d", cut, len(seqs), want)
			}
			if cut != len(full) && l.Repaired() == nil && cut != bounds[len(seqs)] {
				t.Fatalf("prefix %d: no repair recorded", cut)
			}
			// The log must stay appendable at the right next seq.
			next := uint64(want) + 1
			if _, err := l.Append(next, []byte("resumed")); err != nil {
				t.Fatalf("prefix %d: append after repair: %v", cut, err)
			}
			if err := l.Sync(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestWALTornFinalRecordCRCRecovers(t *testing.T) {
	dir := t.TempDir()
	data := buildSegment(testFP, 1, "alpha", "beta")
	data[len(data)-1] ^= 0xff // bit rot inside the final record
	writeSegment(t, dir, 1, data)
	l, err := Open(Options{Dir: dir, Fingerprint: testFP})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer l.Close()
	seqs, payloads := collect(t, l)
	if len(seqs) != 1 || string(payloads[0]) != "alpha" {
		t.Fatalf("recovered %v", seqs)
	}
	if r := l.Repaired(); r == nil || r.Dropped == 0 {
		t.Fatalf("repair = %+v", r)
	}
}

func TestWALZeroFilledTailRecovers(t *testing.T) {
	dir := t.TempDir()
	data := buildSegment(testFP, 1, "alpha")
	data = append(data, make([]byte, 37)...) // size extended, pages never written
	writeSegment(t, dir, 1, data)
	l, err := Open(Options{Dir: dir, Fingerprint: testFP})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer l.Close()
	if seqs, _ := collect(t, l); len(seqs) != 1 {
		t.Fatalf("recovered %v", seqs)
	}
}

func TestWALMidLogCorruptionRefused(t *testing.T) {
	cases := []struct {
		name   string
		mangle func(dir string, t *testing.T)
	}{
		{"early record bit rot", func(dir string, t *testing.T) {
			data := buildSegment(testFP, 1, "alpha", "beta", "gamma")
			data[headerSize+frameSize+seqSize] ^= 0xff // inside record 1's payload
			writeSegment(t, dir, 1, data)
		}},
		{"garbage length mid-log", func(dir string, t *testing.T) {
			data := buildSegment(testFP, 1, "alpha", "beta")
			data[headerSize] = 0xee // record 1's length field, valid data after
			writeSegment(t, dir, 1, data)
		}},
		{"sequence gap", func(dir string, t *testing.T) {
			seg := buildSegment(testFP, 1, "alpha")
			seg = append(seg, encodeFrame(3, []byte("skipped 2"))...)
			writeSegment(t, dir, 1, seg)
		}},
		{"damage in a non-final segment", func(dir string, t *testing.T) {
			first := buildSegment(testFP, 1, "alpha", "beta")
			writeSegment(t, dir, 1, first[:len(first)-3]) // torn, but a successor exists
			writeSegment(t, dir, 3, buildSegment(testFP, 3, "gamma"))
		}},
		{"missing middle segment", func(dir string, t *testing.T) {
			writeSegment(t, dir, 1, buildSegment(testFP, 1, "alpha"))
			writeSegment(t, dir, 5, buildSegment(testFP, 5, "epsilon"))
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			tc.mangle(dir, t)
			_, err := Open(Options{Dir: dir, Fingerprint: testFP})
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Open = %v, want ErrCorrupt", err)
			}
			var ce *CorruptError
			if !errors.As(err, &ce) || ce.Segment == "" || ce.Reason == "" {
				t.Fatalf("error is not a located CorruptError: %#v", err)
			}
		})
	}
}

func TestWALFingerprintMismatchRefused(t *testing.T) {
	dir := t.TempDir()
	writeSegment(t, dir, 1, buildSegment(otherFP, 1, "alpha"))
	if _, err := Open(Options{Dir: dir, Fingerprint: testFP}); !errors.Is(err, ErrFingerprint) {
		t.Fatalf("Open = %v, want ErrFingerprint", err)
	}
}

func TestWALAppendFaultBreaksLog(t *testing.T) {
	defer faults.Reset()
	l, err := Open(Options{Dir: t.TempDir(), Fingerprint: testFP})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := l.Append(1, []byte("ok")); err != nil {
		t.Fatal(err)
	}
	faults.Arm(faults.Fault{Point: faults.WALAppendWrite, Err: errors.New("disk gone")})
	if _, err := l.Append(2, []byte("fails")); err == nil {
		t.Fatal("append did not fail")
	}
	// Broken is sticky: the segment tail state is unknown, so later
	// writes and syncs must refuse rather than append after garbage.
	if _, err := l.Append(2, []byte("again")); err == nil {
		t.Fatal("append after failure should stay failed")
	}
	if err := l.Sync(); err == nil {
		t.Fatal("sync after failure should stay failed")
	}
}

func TestWALFsyncFaultBreaksLog(t *testing.T) {
	defer faults.Reset()
	l, err := Open(Options{Dir: t.TempDir(), Fingerprint: testFP})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := l.Append(1, []byte("ok")); err != nil {
		t.Fatal(err)
	}
	faults.Arm(faults.Fault{Point: faults.WALFsync, Err: errors.New("io error")})
	if err := l.Sync(); err == nil {
		t.Fatal("sync did not fail")
	}
	if _, err := l.Append(2, nil); err == nil {
		t.Fatal("append after failed sync should refuse")
	}
}

func TestWALRecoverReadFaultTornTail(t *testing.T) {
	defer faults.Reset()
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, Fingerprint: testFP})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 1, 4)
	l.Close()
	// The default mangle truncates to half length: a torn tail.
	faults.Arm(faults.Fault{Point: faults.WALRecoverRead})
	l2, err := Open(Options{Dir: dir, Fingerprint: testFP})
	if err != nil {
		t.Fatalf("Open under torn-tail fault: %v", err)
	}
	defer l2.Close()
	if l2.Repaired() == nil {
		t.Fatal("no repair recorded")
	}
	if l2.LastSeq() >= 4 {
		t.Fatalf("LastSeq %d survived a half-truncation", l2.LastSeq())
	}
}

// TestWALReplayReadsOnce: Replay hands out the records Open read past
// StartSeq from the bytes Open kept, so it replays every one of them
// with the segment files gone, and a second Replay finds none.
func TestWALReplayReadsOnce(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, Fingerprint: testFP, SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 1, 20)
	l.Close()
	l, err = Open(Options{Dir: dir, Fingerprint: testFP, SegmentBytes: 128, StartSeq: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if l.Segments() < 3 {
		t.Fatalf("expected rotation, got %d segment(s)", l.Segments())
	}
	names, err := segmentNames(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		if err := os.Remove(filepath.Join(dir, name)); err != nil {
			t.Fatal(err)
		}
	}
	seqs, payloads := collect(t, l)
	if len(seqs) != 13 {
		t.Fatalf("replayed %v, want 8..20", seqs)
	}
	for i, seq := range seqs {
		if want := uint64(8 + i); seq != want || string(payloads[i]) != fmt.Sprintf("batch-%d", want) {
			t.Fatalf("record %d: seq %d payload %q, want %d", i, seq, payloads[i], want)
		}
	}
	if seqs, _ := collect(t, l); len(seqs) != 0 {
		t.Fatalf("second replay: %v", seqs)
	}
}

// TestWALRecoverReadFaultTornFinalRecord: a final record torn in the
// bytes Open reads (bit rot in its last byte, through the recovery-read
// fault) is repaired at Open and never replayed — neither from the bytes
// Open kept nor after a reopen.
func TestWALRecoverReadFaultTornFinalRecord(t *testing.T) {
	defer faults.Reset()
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, Fingerprint: testFP})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 1, 4)
	l.Close()
	faults.Arm(faults.Fault{Point: faults.WALRecoverRead, Mangle: func(b []byte) []byte {
		b = append([]byte(nil), b...)
		b[len(b)-1] ^= 0xff
		return b
	}})
	for _, reopen := range []bool{false, true} {
		l, err := Open(Options{Dir: dir, Fingerprint: testFP})
		if err != nil {
			t.Fatalf("Open (reopen=%v): %v", reopen, err)
		}
		if !reopen && l.Repaired() == nil {
			t.Fatal("no repair recorded")
		}
		seqs, _ := collect(t, l)
		l.Close()
		if len(seqs) != 3 || seqs[2] != 3 {
			t.Fatalf("reopen=%v: replayed %v, want 1..3", reopen, seqs)
		}
	}
}

func TestWALEmptyOnlySegmentTornHeader(t *testing.T) {
	// A crash during the very first segment's creation leaves a short
	// file; recovery must start the log over, not refuse.
	dir := t.TempDir()
	writeSegment(t, dir, 1, []byte(magic[:3]))
	l, err := Open(Options{Dir: dir, Fingerprint: testFP})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer l.Close()
	if l.LastSeq() != 0 {
		t.Fatalf("LastSeq = %d", l.LastSeq())
	}
	if _, err := l.Append(1, []byte("fresh")); err != nil {
		t.Fatal(err)
	}
}

func TestWALOversizeRecordRefused(t *testing.T) {
	l, err := Open(Options{Dir: t.TempDir(), Fingerprint: testFP})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := l.Append(1, make([]byte, MaxRecord)); err == nil {
		t.Fatal("oversize append accepted")
	}
}
