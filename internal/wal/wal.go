// Package wal is a durable write-ahead log for the serve tier: a
// checksummed, length-prefixed, append-only record of committed assert
// batches, fsynced by group commit and replayed over a checkpoint at
// warm start.
//
// Soundness of replay rests on the monotonicity of T_P (Ross & Sagiv):
// EDB insertion is idempotent and order-insensitive, so re-applying any
// suffix of logged batches over any checkpointed interpretation — even
// batches the checkpoint already subsumes — reconverges to the same
// least model an uninterrupted run would have computed. The log
// therefore never needs undo records, only a contiguous sequence of
// redo batches.
//
// # Format (version 1)
//
// A log is a directory of segment files named wal-<firstseq>.seg,
// where <firstseq> is the zero-padded decimal sequence number of the
// first record the segment holds. Each segment is
//
//	header  magic "MDLWAL" + version byte + program fingerprint[32]
//	records [length u32][crc32c u32][seq u64 ‖ payload]...
//
// length counts the body (seq + payload); the CRC (Castagnoli) covers
// the body. Sequence numbers are assigned by the caller and must be
// contiguous across the whole log; segment rotation syncs the old file
// before the new one exists, so a later segment durably existing
// implies every earlier segment is complete.
//
// # Recovery
//
// Open reads every segment once and checks it. Damage in the final
// segment's tail — a short frame, a body running past EOF, a zero-filled
// region, or a CRC failure on the very last record — is the signature of
// a torn write: the tail is truncated at the last valid record and the
// log stays usable. Damage anywhere else (a non-final segment, a mid-segment CRC
// failure with valid data after it, a sequence gap) cannot come from a
// crash mid-append and means acked history is unrecoverable; Open
// refuses with a structured *CorruptError (errors.Is ErrCorrupt)
// rather than silently dropping committed batches. A fingerprint
// mismatch refuses with ErrFingerprint: replaying another program's
// batches would compute a wrong model.
//
// Open keeps the bytes it read and checked of each segment holding
// records past Options.StartSeq, and Replay hands those records out from
// them: a restart reads its log once (the serve tier's restart contract,
// docs/SERVER.md "Warm start and graceful shutdown"). Until Replay lets
// them go they hold the log past the watermark in memory, which the
// recovery decodes into memory anyway.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/faults"
)

// Version is the current segment format version.
const Version = 1

const (
	magic      = "MDLWAL"
	headerSize = len(magic) + 1 + 32 // magic, version byte, fingerprint
	frameSize  = 8                   // length u32 + crc u32
	seqSize    = 8
)

// MaxRecord bounds one record's body (seq + payload); the decoder
// rejects declared lengths beyond it so a corrupt length cannot drive
// allocation.
const MaxRecord = 64 << 20

// DefaultSegmentBytes is the rotation threshold when Options leaves it
// zero.
const DefaultSegmentBytes = 64 << 20

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Error classes, testable with errors.Is on anything Open, Append,
// Sync or Replay returns.
var (
	// ErrCorrupt marks mid-log corruption: damage recovery must refuse
	// to repair because truncating there would drop acked batches.
	ErrCorrupt = errors.New("wal: corrupt log")
	// ErrFingerprint marks a log written by a different program.
	ErrFingerprint = errors.New("wal: program fingerprint mismatch")
	// ErrClosed marks use after Close.
	ErrClosed = errors.New("wal: closed")
)

// CorruptError pinpoints refused mid-log damage.
type CorruptError struct {
	Segment string // segment file name
	Offset  int64  // byte offset of the first invalid record
	Reason  string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("wal: corrupt log: %s at %s:%d", e.Reason, e.Segment, e.Offset)
}

// Is makes errors.Is(err, ErrCorrupt) hold for every CorruptError.
func (e *CorruptError) Is(target error) bool { return target == ErrCorrupt }

// Repair describes a torn tail truncated during Open.
type Repair struct {
	Segment string // segment file name
	Offset  int64  // byte offset the segment was truncated to
	Dropped int64  // bytes discarded
	Reason  string
}

// Options configures Open.
type Options struct {
	// Dir is the log directory, created if missing.
	Dir string
	// Fingerprint identifies the program; segments written under a
	// different fingerprint are refused.
	Fingerprint [32]byte
	// StartSeq is the watermark the log is replayed past, typically the
	// restored checkpoint's: Open keeps the records after it for Replay.
	// It also seeds sequence numbering when the directory holds no
	// segments: the first Append must then carry StartSeq+1.
	StartSeq uint64
	// SegmentBytes rotates to a fresh segment once the current one
	// would exceed this size (0 = DefaultSegmentBytes).
	SegmentBytes int64
}

// segment is one on-disk segment file.
type segment struct {
	name  string // base name
	first uint64 // sequence number of its first record (from the name)
}

// Log is an open write-ahead log. Methods are safe for use from one
// goroutine at a time per method class; the internal mutex additionally
// serializes writers against Compact and metrics reads.
type Log struct {
	mu       sync.Mutex
	dir      string
	fp       [32]byte
	segBytes int64
	segments []segment
	f        *os.File // current (last) segment, append position at its end
	size     int64    // bytes in the current segment
	firstSeq uint64   // oldest retained record (lastSeq+1 when empty)
	lastSeq  uint64   // newest record (StartSeq when empty)
	repaired *Repair
	broken   error // sticky first write/sync failure; nil while healthy
	closed   bool
	// pending is what Open read of each segment holding records past
	// StartSeq, in order, until Replay hands the records out.
	pending []segImage
}

// segImage is a segment's bytes as Open read and checked them, and the
// records in them past StartSeq.
type segImage struct {
	data []byte
	recs []segRec
}

// Open scans, repairs and opens the log at opts.Dir, creating it (and
// a first segment) when empty, and keeps what Replay hands out. It returns ErrFingerprint or a
// *CorruptError as described in the package comment.
func Open(opts Options) (*Log, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	l := &Log{dir: opts.Dir, fp: opts.Fingerprint, segBytes: opts.SegmentBytes, lastSeq: opts.StartSeq}
	names, err := segmentNames(opts.Dir)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		if err := l.createSegment(opts.StartSeq + 1); err != nil {
			return nil, err
		}
		l.firstSeq = opts.StartSeq + 1
		return l, nil
	}
	if err := l.recover(names, opts.StartSeq); err != nil {
		return nil, err
	}
	return l, nil
}

// segmentNames lists the log's segment base names in sequence order.
func segmentNames(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasPrefix(e.Name(), "wal-") && strings.HasSuffix(e.Name(), ".seg") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

// nameSeq parses the first-sequence number a segment name encodes.
func nameSeq(name string) (uint64, error) {
	s := strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".seg")
	n, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		return 0, &CorruptError{Segment: name, Reason: "unparsable segment name"}
	}
	return n, nil
}

func segmentName(first uint64) string {
	return fmt.Sprintf("wal-%020d.seg", first)
}

// recover validates every existing segment, repairs a torn tail in the
// last one, keeps the records past start for Replay, and positions the
// log for appending.
func (l *Log) recover(names []string, start uint64) error {
	prevLast := uint64(0)
	records := 0
	for i, name := range names {
		first, err := nameSeq(name)
		if err != nil {
			return err
		}
		if i == 0 {
			prevLast = first - 1
			l.firstSeq = first
		} else if first != prevLast+1 {
			return &CorruptError{Segment: name, Reason: fmt.Sprintf("segment gap: starts at seq %d, want %d", first, prevLast+1)}
		}
		path := filepath.Join(l.dir, name)
		data, err := os.ReadFile(path)
		if err != nil {
			return fmt.Errorf("wal: %w", err)
		}
		// Recovery-read fault: tests mangle the bytes here to simulate
		// torn tails and bit rot.
		data = faults.Apply(faults.WALRecoverRead, data)
		last := i == len(names)-1
		scan, err := parseSegment(data, l.fp, prevLast+1, last)
		if err != nil {
			decorate(err, name)
			return err
		}
		if scan.torn {
			if err := l.repairTail(path, name, data, scan); err != nil {
				return err
			}
			if scan.validEnd == 0 && len(names) == 1 {
				// The only segment was unreadable before its first record;
				// start over from the in-name sequence.
				l.firstSeq = first
				l.lastSeq = first - 1
				return l.createSegment(first)
			}
		}
		if n := len(scan.recs); n > 0 {
			prevLast = scan.recs[n-1].seq
			records += n
			if prevLast > start {
				from := sort.Search(n, func(j int) bool { return scan.recs[j].seq > start })
				l.pending = append(l.pending, segImage{data: data, recs: scan.recs[from:]})
			}
		}
		if last && !(scan.torn && scan.validEnd == 0) {
			l.segments = append(l.segments, segment{name: name, first: first})
			l.size = int64(scan.validEnd)
			f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
			if err != nil {
				return fmt.Errorf("wal: %w", err)
			}
			l.f = f
		} else if !last {
			l.segments = append(l.segments, segment{name: name, first: first})
		}
	}
	l.lastSeq = prevLast
	if records == 0 {
		l.firstSeq = l.lastSeq + 1
	}
	if l.f == nil {
		// The last segment was removed whole (torn before its header)
		// but earlier segments survive: append into a fresh one.
		return l.createSegment(l.lastSeq + 1)
	}
	return nil
}

// decorate fills the segment name into a CorruptError built by the
// name-agnostic parser.
func decorate(err error, name string) {
	var ce *CorruptError
	if errors.As(err, &ce) && ce.Segment == "" {
		ce.Segment = name
	}
}

// repairTail truncates a torn tail (or removes a segment torn before
// its first record) and makes the repair durable.
func (l *Log) repairTail(path, name string, data []byte, scan segScan) error {
	l.repaired = &Repair{
		Segment: name,
		Offset:  int64(scan.validEnd),
		Dropped: int64(len(data) - scan.validEnd),
		Reason:  scan.reason,
	}
	if scan.validEnd == 0 {
		if err := os.Remove(path); err != nil {
			return fmt.Errorf("wal: removing torn segment: %w", err)
		}
		return syncDir(l.dir)
	}
	if err := os.Truncate(path, int64(scan.validEnd)); err != nil {
		return fmt.Errorf("wal: truncating torn tail: %w", err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	defer f.Close()
	if err := f.Sync(); err != nil {
		return fmt.Errorf("wal: syncing repaired segment: %w", err)
	}
	return nil
}

// createSegment starts a fresh segment whose first record will carry
// sequence number first, and durably records its existence.
func (l *Log) createSegment(first uint64) error {
	name := segmentName(first)
	path := filepath.Join(l.dir, name)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	hdr := make([]byte, 0, headerSize)
	hdr = append(hdr, magic...)
	hdr = append(hdr, Version)
	hdr = append(hdr, l.fp[:]...)
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		return fmt.Errorf("wal: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("wal: %w", err)
	}
	if err := syncDir(l.dir); err != nil {
		f.Close()
		return err
	}
	if l.f != nil {
		l.f.Close()
	}
	l.f = f
	l.size = int64(headerSize)
	l.segments = append(l.segments, segment{name: name, first: first})
	return nil
}

// syncDir fsyncs a directory so renames, creates and removes within it
// are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("wal: syncing directory %s: %w", dir, err)
	}
	return nil
}

// Append writes one record. seq must be LastSeq()+1 — the caller owns
// sequence assignment. The bytes reach the OS but not necessarily the
// platter; call Sync before acking (per the configured fsync policy).
// Returns the framed size written. A failed write marks the log broken:
// every later Append and Sync fails, because bytes of unknown extent
// may follow the last good record.
func (l *Log) Append(seq uint64, payload []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.usable(); err != nil {
		return 0, err
	}
	if seq != l.lastSeq+1 {
		return 0, fmt.Errorf("wal: non-contiguous append: seq %d after %d", seq, l.lastSeq)
	}
	if len(payload)+seqSize > MaxRecord {
		return 0, fmt.Errorf("wal: record of %d bytes exceeds limit %d", len(payload)+seqSize, MaxRecord)
	}
	if err := faults.Check(faults.WALAppendWrite); err != nil {
		l.broken = fmt.Errorf("wal: append failed: %w", err)
		return 0, l.broken
	}
	frame := encodeFrame(seq, payload)
	if l.size+int64(len(frame)) > l.segBytes && l.size > int64(headerSize) {
		if err := l.rotate(seq); err != nil {
			l.broken = err
			return 0, err
		}
	}
	if _, err := l.f.Write(frame); err != nil {
		l.broken = fmt.Errorf("wal: append failed: %w", err)
		return 0, l.broken
	}
	l.size += int64(len(frame))
	l.lastSeq = seq
	return len(frame), nil
}

// rotate seals the current segment (fsync — so a durable successor
// implies a complete predecessor) and opens the next.
func (l *Log) rotate(first uint64) error {
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: sealing segment: %w", err)
	}
	return l.createSegment(first)
}

// Sync fsyncs the current segment; group commit calls it once per
// drain before acking the drained batches. A failure marks the log
// broken.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.usable(); err != nil {
		return err
	}
	// Fsync fault: Delay models a stalling disk, Err a dying one.
	if err := faults.Check(faults.WALFsync); err != nil {
		l.broken = fmt.Errorf("wal: fsync failed: %w", err)
		return l.broken
	}
	if err := l.f.Sync(); err != nil {
		l.broken = fmt.Errorf("wal: fsync failed: %w", err)
		return l.broken
	}
	return nil
}

func (l *Log) usable() error {
	if l.closed {
		return ErrClosed
	}
	if l.broken != nil {
		return l.broken
	}
	return nil
}

// Replay hands fn, in order, every record Open read past
// Options.StartSeq, from the bytes Open read and checked: the files are
// not read again. It lets go of each segment's bytes once their records
// are handed out, so the log replays once; records appended since Open
// are not replayed. The payload slice is only valid during the call.
func (l *Log) Replay(fn func(seq uint64, payload []byte) error) error {
	l.mu.Lock()
	pending := l.pending
	l.pending = nil
	l.mu.Unlock()
	for i, img := range pending {
		pending[i] = segImage{}
		for _, r := range img.recs {
			if err := fn(r.seq, img.data[r.off:r.off+r.n]); err != nil {
				return err
			}
		}
	}
	return nil
}

// Compact removes every segment wholly subsumed by a durable
// checkpoint at watermark (all of its records have seq ≤ watermark and
// a later segment exists). The current segment always survives.
// Returns how many segments were removed.
func (l *Log) Compact(watermark uint64) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	removed := 0
	for len(l.segments) > 1 && l.segments[1].first <= watermark+1 {
		if err := os.Remove(filepath.Join(l.dir, l.segments[0].name)); err != nil {
			return removed, fmt.Errorf("wal: compacting: %w", err)
		}
		l.segments = l.segments[1:]
		removed++
	}
	if removed > 0 {
		l.firstSeq = l.segments[0].first
		if err := syncDir(l.dir); err != nil {
			return removed, err
		}
	}
	return removed, nil
}

// Close seals the log. It does not fsync unwritten data — callers ack
// only after Sync, so anything lost here was never promised.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	if l.f != nil {
		return l.f.Close()
	}
	return nil
}

// LastSeq is the newest record's sequence number (StartSeq when the
// log holds none).
func (l *Log) LastSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lastSeq
}

// FirstSeq is the oldest retained record's sequence number
// (LastSeq()+1 when the log holds none). A warm start must check
// FirstSeq ≤ watermark+1: a later first record means compaction
// outlived the checkpoint and acked history is gone.
func (l *Log) FirstSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.firstSeq
}

// Segments is the number of on-disk segment files.
func (l *Log) Segments() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.segments)
}

// Repaired reports the torn-tail repair Open performed, if any.
func (l *Log) Repaired() *Repair { return l.repaired }

// Dir is the log directory.
func (l *Log) Dir() string { return l.dir }

// encodeFrame builds one on-disk record.
func encodeFrame(seq uint64, payload []byte) []byte {
	body := len(payload) + seqSize
	frame := make([]byte, frameSize+body)
	binary.BigEndian.PutUint32(frame[0:4], uint32(body))
	binary.BigEndian.PutUint64(frame[frameSize:], seq)
	copy(frame[frameSize+seqSize:], payload)
	binary.BigEndian.PutUint32(frame[4:8], crc32.Checksum(frame[frameSize:], castagnoli))
	return frame
}

// segRec locates one valid record inside a segment's bytes.
type segRec struct {
	seq uint64
	off int // payload offset
	n   int // payload length
}

// segScan is the outcome of parsing one segment.
type segScan struct {
	recs     []segRec
	validEnd int    // bytes of valid prefix (headerSize when no records)
	torn     bool   // tail beyond validEnd is torn; truncate there
	reason   string // why the tail was classified torn
}

// parseSegment validates one segment image. wantSeq is the expected
// sequence number of its first record; last selects torn-tail leniency
// (only the final segment of a log may legally be torn — damage
// elsewhere returns a *CorruptError with the segment name left for the
// caller to fill in). It never panics, whatever the input.
func parseSegment(data []byte, fp [32]byte, wantSeq uint64, last bool) (segScan, error) {
	scan := segScan{}
	if len(data) < headerSize {
		if last {
			scan.torn, scan.reason = true, "segment shorter than its header"
			return scan, nil
		}
		return scan, &CorruptError{Reason: "segment shorter than its header"}
	}
	if string(data[:len(magic)]) != magic || data[len(magic)] != Version {
		if last && len(data) == headerSize {
			scan.torn, scan.reason = true, "torn segment header"
			return scan, nil
		}
		return scan, &CorruptError{Reason: "bad segment magic or version"}
	}
	if string(data[len(magic)+1:headerSize]) != string(fp[:]) {
		return scan, fmt.Errorf("%w: segment written by program %x…", ErrFingerprint, data[len(magic)+1:len(magic)+7])
	}
	off := headerSize
	scan.validEnd = off
	torn := func(reason string) (segScan, error) {
		if !last {
			return scan, &CorruptError{Offset: int64(off), Reason: reason + " mid-log"}
		}
		scan.torn, scan.reason = true, reason
		return scan, nil
	}
	for off < len(data) {
		rem := len(data) - off
		if rem < frameSize {
			return torn("truncated record frame")
		}
		ln := int(binary.BigEndian.Uint32(data[off : off+4]))
		if ln < seqSize || ln > MaxRecord {
			if allZero(data[off:]) {
				// A crash can persist a file-size extension before the
				// data pages, leaving a zero tail; garbage lengths with
				// non-zero data behind them cannot come from a torn
				// append and are refused.
				return torn("zero-filled tail")
			}
			return scan, &CorruptError{Offset: int64(off), Reason: fmt.Sprintf("invalid record length %d", ln)}
		}
		if ln > rem-frameSize {
			return torn("record body past end of segment")
		}
		body := data[off+frameSize : off+frameSize+ln]
		if crc32.Checksum(body, castagnoli) != binary.BigEndian.Uint32(data[off+4:off+8]) {
			if last && off+frameSize+ln == len(data) {
				return torn("checksum mismatch in final record")
			}
			return scan, &CorruptError{Offset: int64(off), Reason: "record checksum mismatch"}
		}
		seq := binary.BigEndian.Uint64(body[:seqSize])
		if seq != wantSeq {
			return scan, &CorruptError{Offset: int64(off), Reason: fmt.Sprintf("sequence discontinuity: record %d, want %d", seq, wantSeq)}
		}
		scan.recs = append(scan.recs, segRec{seq: seq, off: off + frameSize + seqSize, n: ln - seqSize})
		wantSeq++
		off += frameSize + ln
		scan.validEnd = off
	}
	return scan, nil
}

func allZero(b []byte) bool {
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}
