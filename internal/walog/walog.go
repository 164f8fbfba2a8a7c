// Package walog is a segmented, checksummed write-ahead log: the
// durability backbone under internal/remote's update path (ROADMAP
// item 3). Records are length-prefixed and individually CRC-framed
// with the writing server's epoch (boot nonce) and the database
// generation they commit, so replay can tell a record from a torn
// tail and a stale pre-checkpoint record from one that must be
// re-applied.
//
// Durability discipline:
//
//   - Append returns a Ticket; Ticket.Wait blocks until the record is
//     fsynced. Waiters batch: the first becomes the group leader and
//     issues one fsync covering everything appended so far; whatever
//     is appended while that fsync runs shares the next one.
//   - Rotation fsyncs the outgoing segment BEFORE creating the next
//     one, and fsyncs the new file and then the directory before any
//     record lands in it — so segment N is wholly durable before
//     segment N+1 exists, and replay may treat damage in a non-last
//     segment as corruption rather than a crash artifact.
//   - A failed write or fsync poisons the log permanently (the
//     kernel may have dropped the dirty pages; retrying an fsync
//     that failed once proves nothing). Every later Append or Wait
//     returns the sticky error; the owner falls back to a full
//     checkpoint through its own path.
//
// Replay walks the segments in order, returns every valid record,
// truncates a torn tail of the last segment (the expected power-loss
// shape), and reports ErrCorrupt when damage cannot be a crash
// artifact: an invalid record with valid bytes after it, or any
// damage in a segment that rotation had already sealed.
package walog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"repro/internal/faultfs"
)

// Record is one WAL entry. The log does not interpret Type or
// Payload; Epoch and Gen are replay framing (the owner skips records
// whose Gen the snapshot already covers).
type Record struct {
	Epoch   uint64
	Gen     uint64
	Type    byte
	Payload []byte
}

// Options configures a Log.
type Options struct {
	// FS is the filesystem seam; nil means the real one.
	FS faultfs.FS
	// SegmentBytes is the rotation threshold. Zero means 4 MiB.
	SegmentBytes int64
}

// Replay is what Open found on disk.
type Replay struct {
	// Records are the valid records of all segments, in append order.
	Records []Record
	// Segments is how many segment files were scanned.
	Segments int
	// TruncatedBytes counts bytes dropped from the last segment's
	// torn tail (0 on a clean shutdown).
	TruncatedBytes int64
	// TornTail reports whether a torn tail was truncated.
	TornTail bool
}

// ErrCorrupt means the log's damage cannot be explained by a crash:
// an invalid record followed by valid data, or damage inside a
// sealed (non-last) segment. The caller must treat the database as
// corrupt (quarantine), not silently truncate.
var ErrCorrupt = errors.New("walog: log corrupt (damage is not a torn tail)")

// maxRecord bounds a record's framed length; a length prefix beyond
// it is treated as damage, not an allocation request.
const maxRecord = 1 << 30

var (
	segMagic  = []byte("SXWL")
	crcTable  = crc32.MakeTable(crc32.Castagnoli)
	segHeader = func() []byte {
		h := make([]byte, 8)
		copy(h, segMagic)
		binary.LittleEndian.PutUint32(h[4:], 1) // version
		return h
	}()
)

// recHeader is the per-record framing before the CRC-covered body:
// u32 body length, u32 CRC. The body is u64 epoch, u64 gen, u8 type,
// payload.
const recHeader = 8
const recBodyMin = 17

// EncodeRecord appends rec's framed encoding to buf.
func EncodeRecord(buf []byte, rec Record) []byte {
	bodyLen := recBodyMin + len(rec.Payload)
	var hdr [recHeader + recBodyMin]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(bodyLen))
	binary.LittleEndian.PutUint64(hdr[8:], rec.Epoch)
	binary.LittleEndian.PutUint64(hdr[16:], rec.Gen)
	hdr[24] = rec.Type
	crc := crc32.Update(0, crcTable, hdr[8:])
	crc = crc32.Update(crc, crcTable, rec.Payload)
	binary.LittleEndian.PutUint32(hdr[4:], crc)
	buf = append(buf, hdr[:]...)
	return append(buf, rec.Payload...)
}

// Decode outcomes: errTorn means the bytes run out mid-record (a
// crash artifact); errInvalid means the bytes are present but wrong
// (bad length field or CRC mismatch).
var (
	errTorn    = errors.New("walog: torn record")
	errInvalid = errors.New("walog: invalid record")
)

// DecodeRecord parses one framed record from the front of data,
// returning it and the number of bytes consumed. errTorn and
// errInvalid (unexported; distinguished by replay) classify failures.
func DecodeRecord(data []byte) (Record, int, error) {
	if len(data) < recHeader {
		return Record{}, 0, errTorn
	}
	bodyLen := binary.LittleEndian.Uint32(data)
	if bodyLen < recBodyMin || bodyLen > maxRecord {
		return Record{}, 0, errInvalid
	}
	total := recHeader + int(bodyLen)
	if len(data) < total {
		return Record{}, 0, errTorn
	}
	body := data[recHeader:total]
	if crc32.Checksum(body, crcTable) != binary.LittleEndian.Uint32(data[4:]) {
		return Record{}, 0, fmt.Errorf("%w: crc mismatch", errInvalid)
	}
	rec := Record{
		Epoch: binary.LittleEndian.Uint64(body),
		Gen:   binary.LittleEndian.Uint64(body[8:]),
		Type:  body[16],
	}
	if n := int(bodyLen) - recBodyMin; n > 0 {
		rec.Payload = append([]byte(nil), body[recBodyMin:recBodyMin+n]...)
	}
	return rec, total, nil
}

// Log is an open write-ahead log. Safe for concurrent use.
type Log struct {
	dir  string
	fs   faultfs.FS
	opts Options

	mu        sync.Mutex
	cond      *sync.Cond
	f         faultfs.File
	segNum    int
	segSize   int64
	appended  uint64 // seq of last record written
	durable   uint64 // seq of last record fsynced
	syncing   bool
	resetting bool
	err       error // sticky; once set the log is dead
	// syncs counts completed group fsyncs — the denominator of the
	// group-commit amortization story: N acknowledged records over S
	// syncs means each fsync carried N/S records.
	syncs int64
}

// Ticket is a claim on one appended record's durability.
type Ticket struct {
	l   *Log
	seq uint64
}

func segName(n int) string { return fmt.Sprintf("seg-%08d.wal", n) }

func parseSegName(name string) (int, bool) {
	if !strings.HasPrefix(name, "seg-") || !strings.HasSuffix(name, ".wal") {
		return 0, false
	}
	var n int
	if _, err := fmt.Sscanf(name, "seg-%08d.wal", &n); err != nil || n <= 0 {
		return 0, false
	}
	return n, true
}

// Open scans dir's segments, replays their valid records, truncates
// a torn tail, and returns a log ready to append. On ErrCorrupt the
// log is nil and the on-disk bytes are left untouched (evidence for
// the quarantine the caller must now perform); the Replay still
// carries the records that were valid before the damage.
func Open(dir string, opts Options) (*Log, *Replay, error) {
	if opts.FS == nil {
		opts.FS = faultfs.OS{}
	}
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = 4 << 20
	}
	fs := opts.FS
	if err := fs.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("walog: mkdir: %w", err)
	}
	ents, err := fs.ReadDir(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("walog: scan: %w", err)
	}
	var segs []int
	for _, e := range ents {
		if n, ok := parseSegName(e.Name()); ok {
			segs = append(segs, n)
		}
	}
	sort.Ints(segs)

	rep := &Replay{Segments: len(segs)}
	l := &Log{dir: dir, fs: fs, opts: opts}
	l.cond = sync.NewCond(&l.mu)

	lastValidEnd := int64(0)
	for i, n := range segs {
		path := filepath.Join(dir, segName(n))
		data, err := fs.ReadFile(path)
		if err != nil {
			return nil, nil, fmt.Errorf("walog: read %s: %w", segName(n), err)
		}
		last := i == len(segs)-1
		validEnd, torn, err := scanSegment(data, rep, last)
		if err != nil {
			return nil, rep, fmt.Errorf("%w: %s: %v", ErrCorrupt, segName(n), err)
		}
		if last {
			lastValidEnd = validEnd
			if torn {
				rep.TornTail = true
				rep.TruncatedBytes = int64(len(data)) - validEnd
			}
		}
	}

	if len(segs) > 0 {
		// Reopen the last segment for appends, cutting the torn tail
		// so new records follow the last valid one.
		n := segs[len(segs)-1]
		path := filepath.Join(dir, segName(n))
		if lastValidEnd < int64(len(segHeader)) {
			// Not even a whole header survived: the segment was born
			// in a rotation or reset the crash interrupted before the
			// directory fsync that would have committed it. Replace it.
			if err := fs.Remove(path); err != nil {
				return nil, rep, fmt.Errorf("walog: drop stub segment: %w", err)
			}
			if err := l.newSegment(n); err != nil {
				return nil, rep, err
			}
		} else {
			// O_APPEND writes always land at EOF, so truncating the
			// torn tail and appending compose without seeking.
			f, err := fs.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				return nil, rep, fmt.Errorf("walog: reopen segment: %w", err)
			}
			if err := f.Truncate(lastValidEnd); err != nil {
				f.Close()
				return nil, rep, fmt.Errorf("walog: truncate torn tail: %w", err)
			}
			if err := f.Sync(); err != nil {
				f.Close()
				return nil, rep, fmt.Errorf("walog: sync truncated segment: %w", err)
			}
			l.f, l.segNum, l.segSize = f, n, lastValidEnd
		}
	} else {
		if err := l.newSegment(1); err != nil {
			return nil, rep, err
		}
	}
	return l, rep, nil
}

// scanSegment walks one segment's records. It returns the byte
// offset after the last valid record and whether the remainder is a
// (tolerable) torn tail. A non-nil error means the damage cannot be
// a crash artifact.
func scanSegment(data []byte, rep *Replay, last bool) (validEnd int64, torn bool, err error) {
	if len(data) < len(segHeader) || string(data[:4]) != string(segMagic) {
		if last {
			// Header never fully landed: stub segment, replaced by Open.
			return 0, true, nil
		}
		return 0, false, errors.New("sealed segment missing header")
	}
	off := len(segHeader)
	for off < len(data) {
		rec, n, derr := DecodeRecord(data[off:])
		if derr == nil {
			rep.Records = append(rep.Records, rec)
			off += n
			continue
		}
		if !last {
			return 0, false, fmt.Errorf("sealed segment damaged at offset %d: %v", off, derr)
		}
		if errors.Is(derr, errInvalid) {
			// Bytes for the whole record are present but wrong. At the
			// very end of the file that is a torn, garbled tail (a
			// half-programmed sector); with valid data after it, it is
			// mid-file corruption.
			if rem := data[off:]; len(rem) >= recHeader {
				if bl := binary.LittleEndian.Uint32(rem); bl >= recBodyMin && bl <= maxRecord {
					if end := recHeader + int(bl); len(rem) > end {
						if _, _, e2 := DecodeRecord(rem[end:]); e2 == nil {
							return 0, false, fmt.Errorf("valid record after damage at offset %d", off)
						}
					}
				}
			}
		}
		return int64(off), true, nil
	}
	return int64(off), false, nil
}

// newSegment creates segment n, writes its header, fsyncs the file
// and then the directory, and makes it the append target. Caller
// must ensure no group sync is in flight.
func (l *Log) newSegment(n int) error {
	path := filepath.Join(l.dir, segName(n))
	f, err := l.fs.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("walog: create segment: %w", err)
	}
	if _, err := f.Write(segHeader); err != nil {
		f.Close()
		return fmt.Errorf("walog: segment header: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("walog: sync new segment: %w", err)
	}
	if err := l.fs.SyncDir(l.dir); err != nil {
		f.Close()
		return fmt.Errorf("walog: sync dir: %w", err)
	}
	if l.f != nil {
		l.f.Close()
	}
	l.f, l.segNum, l.segSize = f, n, int64(len(segHeader))
	return nil
}

// fail poisons the log. Caller holds l.mu.
func (l *Log) fail(op string, err error) error {
	if l.err == nil {
		l.err = fmt.Errorf("walog: %s: %w (log failed; no further appends accepted)", op, err)
		l.cond.Broadcast()
	}
	return l.err
}

// Err returns the sticky failure, if any.
func (l *Log) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// Syncs reports how many group fsyncs have completed (stats surface;
// the amortization benches compare it to records appended).
func (l *Log) Syncs() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.syncs
}

// Size returns the current segment's byte size (stats surface).
func (l *Log) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.segSize
}

// Append writes rec to the log and returns a ticket; the record is
// durable only once Ticket.Wait returns nil. Rotation happens here,
// before the write, when the current segment is over the threshold.
func (l *Log) Append(rec Record) (*Ticket, error) {
	buf := EncodeRecord(nil, rec)
	l.mu.Lock()
	defer l.mu.Unlock()
	// A reset in progress is about to delete the current segment; a
	// record written now would vanish while its ticket reads durable.
	for l.resetting {
		l.cond.Wait()
	}
	if l.err != nil {
		return nil, l.err
	}
	if l.segSize+int64(len(buf)) > l.opts.SegmentBytes && l.segSize > int64(len(segHeader)) {
		// Seal the outgoing segment: wait out any in-flight group
		// sync (it holds the old handle), then fsync the whole file so
		// every record in it is durable before its successor exists.
		for l.syncing {
			l.cond.Wait()
		}
		if l.err != nil {
			return nil, l.err
		}
		if err := l.f.Sync(); err != nil {
			return nil, l.fail("seal segment", err)
		}
		l.durable = l.appended
		l.cond.Broadcast()
		if err := l.newSegment(l.segNum + 1); err != nil {
			return nil, l.fail("rotate", err)
		}
	}
	if _, err := l.f.Write(buf); err != nil {
		return nil, l.fail("append", err)
	}
	l.segSize += int64(len(buf))
	l.appended++
	return &Ticket{l: l, seq: l.appended}, nil
}

// Wait blocks until the ticket's record is fsynced (possibly by a
// batched group leader) and returns nil, or returns the log's sticky
// error. Waiters elect the first among them leader; the leader's one
// fsync covers every record appended before it starts, and records
// appended while it runs wait for the next leader's.
func (t *Ticket) Wait() error {
	l := t.l
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.durable < t.seq && l.err == nil {
		if l.syncing {
			l.cond.Wait()
			continue
		}
		l.syncing = true
		target, f := l.appended, l.f
		l.mu.Unlock()
		serr := f.Sync()
		l.mu.Lock()
		l.syncing = false
		if serr != nil {
			l.fail("group sync", serr)
		} else {
			l.syncs++
			if target > l.durable {
				l.durable = target
			}
		}
		l.cond.Broadcast()
	}
	if l.durable >= t.seq {
		return nil
	}
	return l.err
}

// Reset empties the log after a checkpoint made its records
// redundant: every outstanding ticket is released as durable (the
// checkpoint persisted the state those records rebuilt), all
// segments are deleted, and a fresh segment 1 is created. A crash
// mid-reset leaves stale segments whose records the next replay
// skips by generation.
func (l *Log) Reset() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	// The checkpoint superseded every appended record; waiters are
	// satisfied by it, not by an fsync of bytes about to be deleted.
	// Block new appends, release every waiter, then wait out any
	// in-flight fsync.
	l.resetting = true
	defer func() {
		l.resetting = false
		l.cond.Broadcast()
	}()
	l.durable = l.appended
	l.cond.Broadcast()
	for l.syncing {
		l.cond.Wait()
	}
	if l.err != nil {
		return l.err
	}
	l.f.Close()
	l.f = nil
	ents, err := l.fs.ReadDir(l.dir)
	if err != nil {
		return l.fail("reset scan", err)
	}
	for _, e := range ents {
		if _, ok := parseSegName(e.Name()); ok {
			if err := l.fs.Remove(filepath.Join(l.dir, e.Name())); err != nil {
				return l.fail("reset remove", err)
			}
		}
	}
	if err := l.fs.SyncDir(l.dir); err != nil {
		return l.fail("reset dir sync", err)
	}
	if err := l.newSegment(1); err != nil {
		return l.fail("reset", err)
	}
	return nil
}

// Close releases the append handle. It does not fsync: callers that
// need durability hold tickets.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.syncing {
		l.cond.Wait()
	}
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	if l.err == nil {
		l.err = errors.New("walog: closed")
	}
	return err
}
