package walog

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultfs"
)

func openT(t *testing.T, dir string, opts Options) (*Log, *Replay) {
	t.Helper()
	l, rep, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return l, rep
}

func appendWait(t *testing.T, l *Log, rec Record) {
	t.Helper()
	tk, err := l.Append(rec)
	if err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := tk.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, rep := openT(t, dir, Options{})
	if len(rep.Records) != 0 || rep.Segments != 0 {
		t.Fatalf("fresh dir replay = %+v", rep)
	}
	for i := 0; i < 20; i++ {
		appendWait(t, l, Record{Epoch: 7, Gen: uint64(i + 1), Type: 1,
			Payload: bytes.Repeat([]byte{byte(i)}, i)})
	}
	l.Close()

	_, rep = openT(t, dir, Options{})
	if len(rep.Records) != 20 {
		t.Fatalf("replayed %d records, want 20", len(rep.Records))
	}
	for i, r := range rep.Records {
		if r.Epoch != 7 || r.Gen != uint64(i+1) || r.Type != 1 || len(r.Payload) != i {
			t.Fatalf("record %d = %+v", i, r)
		}
	}
}

func TestRotationSealsSegments(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{SegmentBytes: 256})
	for i := 0; i < 30; i++ {
		appendWait(t, l, Record{Gen: uint64(i + 1), Payload: make([]byte, 40)})
	}
	l.Close()
	ents, _ := os.ReadDir(dir)
	if len(ents) < 3 {
		t.Fatalf("expected multiple segments, got %d", len(ents))
	}
	_, rep := openT(t, dir, Options{SegmentBytes: 256})
	if len(rep.Records) != 30 || rep.Segments < 3 {
		t.Fatalf("replay across segments: %d records, %d segments", len(rep.Records), rep.Segments)
	}
}

func TestTornTailTruncatedOnReplay(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{})
	appendWait(t, l, Record{Gen: 1, Payload: []byte("keep me")})
	l.Close()

	// Simulate a crash mid-append: half a record at the tail.
	path := filepath.Join(dir, segName(1))
	full := EncodeRecord(nil, Record{Gen: 2, Payload: bytes.Repeat([]byte("x"), 100)})
	f, _ := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	f.Write(full[:len(full)/2])
	f.Close()

	l2, rep := openT(t, dir, Options{})
	if !rep.TornTail || rep.TruncatedBytes != int64(len(full)/2) {
		t.Fatalf("replay = %+v, want torn tail of %d bytes", rep, len(full)/2)
	}
	if len(rep.Records) != 1 || string(rep.Records[0].Payload) != "keep me" {
		t.Fatalf("records = %+v", rep.Records)
	}
	// The log must keep working after the cut.
	appendWait(t, l2, Record{Gen: 2, Payload: []byte("after")})
	l2.Close()
	_, rep = openT(t, dir, Options{})
	if len(rep.Records) != 2 || string(rep.Records[1].Payload) != "after" {
		t.Fatalf("post-truncation append lost: %+v", rep.Records)
	}
}

func TestGarbledTailTruncated(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{})
	appendWait(t, l, Record{Gen: 1, Payload: []byte("good")})
	l.Close()

	// Full record present but its last byte flipped — the
	// half-programmed-sector shape faultfs produces.
	path := filepath.Join(dir, segName(1))
	bad := EncodeRecord(nil, Record{Gen: 2, Payload: []byte("evil")})
	bad[len(bad)-1] ^= 0xFF
	f, _ := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	f.Write(bad)
	f.Close()

	_, rep := openT(t, dir, Options{})
	if !rep.TornTail || len(rep.Records) != 1 {
		t.Fatalf("garbled tail should truncate: %+v", rep)
	}
}

func TestMidFileCorruptionIsErrCorrupt(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{})
	appendWait(t, l, Record{Gen: 1, Payload: []byte("one")})
	appendWait(t, l, Record{Gen: 2, Payload: []byte("two")})
	appendWait(t, l, Record{Gen: 3, Payload: []byte("three")})
	l.Close()

	// Flip a payload byte of the middle record: a valid record
	// follows the damage, so this is corruption, not a crash.
	path := filepath.Join(dir, segName(1))
	data, _ := os.ReadFile(path)
	rec1 := len(EncodeRecord(nil, Record{Gen: 1, Payload: []byte("one")}))
	off := len(segHeader) + rec1 + recHeader + recBodyMin // first payload byte of record 2
	data[off] ^= 0xFF
	os.WriteFile(path, data, 0o644)

	_, rep, err := Open(dir, Options{})
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("want ErrCorrupt, got %v", err)
	}
	if len(rep.Records) != 1 {
		t.Fatalf("records before damage = %d, want 1", len(rep.Records))
	}
	// Evidence preserved: the file must not have been truncated.
	after, _ := os.ReadFile(path)
	if len(after) != len(data) {
		t.Fatal("corrupt segment was modified")
	}
}

func TestDamageInSealedSegmentIsErrCorrupt(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{SegmentBytes: 128})
	for i := 0; i < 10; i++ {
		appendWait(t, l, Record{Gen: uint64(i + 1), Payload: make([]byte, 60)})
	}
	l.Close()
	ents, _ := os.ReadDir(dir)
	if len(ents) < 2 {
		t.Fatalf("need ≥2 segments, got %d", len(ents))
	}
	// Truncate the FIRST (sealed) segment — rotation fsynced it, so
	// a short tail there cannot be a crash artifact.
	path := filepath.Join(dir, ents[0].Name())
	data, _ := os.ReadFile(path)
	os.WriteFile(path, data[:len(data)-3], 0o644)

	_, _, err := Open(dir, Options{SegmentBytes: 128})
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("want ErrCorrupt for sealed-segment damage, got %v", err)
	}
}

func TestStubSegmentReplaced(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{})
	appendWait(t, l, Record{Gen: 1, Payload: []byte("x")})
	l.Close()
	// A rotation that crashed right after creating the next file can
	// leave a header-less stub as the last segment.
	os.WriteFile(filepath.Join(dir, segName(2)), []byte("SX"), 0o644)

	l2, rep := openT(t, dir, Options{})
	if len(rep.Records) != 1 {
		t.Fatalf("records = %d, want 1", len(rep.Records))
	}
	appendWait(t, l2, Record{Gen: 2, Payload: []byte("y")})
	l2.Close()
	_, rep = openT(t, dir, Options{})
	if len(rep.Records) != 2 {
		t.Fatalf("after stub replacement: %d records", len(rep.Records))
	}
}

func TestResetEmptiesLog(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{SegmentBytes: 128})
	for i := 0; i < 10; i++ {
		appendWait(t, l, Record{Gen: uint64(i + 1), Payload: make([]byte, 60)})
	}
	if err := l.Reset(); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	appendWait(t, l, Record{Gen: 11, Payload: []byte("fresh")})
	l.Close()
	_, rep := openT(t, dir, Options{})
	if len(rep.Records) != 1 || rep.Records[0].Gen != 11 {
		t.Fatalf("after reset: %+v", rep.Records)
	}
}

// parkedFS is the real filesystem with every file fsync passing
// through park once it is armed: the first armed fsync signals parked,
// and all of them wait until unpark.
type parkedFS struct {
	faultfs.OS
	p *fsyncPark
}

type fsyncPark struct {
	armed          atomic.Bool
	once, released sync.Once
	parked         chan struct{}
	release        chan struct{}
}

func newFsyncPark() *fsyncPark {
	return &fsyncPark{parked: make(chan struct{}), release: make(chan struct{})}
}

func (p *fsyncPark) unpark() { p.released.Do(func() { close(p.release) }) }

func (p *fsyncPark) park() {
	if p.armed.Load() {
		p.once.Do(func() { close(p.parked) })
		<-p.release
	}
}

// awaitParked blocks until an fsync is parked.
func (p *fsyncPark) awaitParked(t *testing.T) {
	t.Helper()
	select {
	case <-p.parked:
	case <-time.After(5 * time.Second):
		t.Fatal("no fsync reached the park")
	}
}

type parkedFile struct {
	faultfs.File
	p *fsyncPark
}

func (fs parkedFS) OpenFile(path string, flag int, perm os.FileMode) (faultfs.File, error) {
	f, err := fs.OS.OpenFile(path, flag, perm)
	if err != nil {
		return nil, err
	}
	return parkedFile{File: f, p: fs.p}, nil
}

func (f parkedFile) Sync() error { f.p.park(); return f.File.Sync() }

// openParked opens a log whose file fsyncs park once armed.
func openParked(t *testing.T, dir string) (*Log, *fsyncPark) {
	t.Helper()
	p := newFsyncPark()
	t.Cleanup(p.unpark)
	l, _ := openT(t, dir, Options{FS: parkedFS{p: p}})
	return l, p
}

func TestResetReleasesOutstandingTickets(t *testing.T) {
	dir := t.TempDir()
	l, park := openParked(t, dir)
	tk, err := l.Append(Record{Gen: 1})
	if err != nil {
		t.Fatal(err)
	}
	// The group leader hangs in its fsync; Reset must release the
	// ticket queued behind it without waiting for that fsync.
	park.armed.Store(true)
	leader := make(chan error, 1)
	go func() { leader <- tk.Wait() }()
	park.awaitParked(t)
	tk2, err := l.Append(Record{Gen: 2})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- tk2.Wait() }()
	reset := make(chan error, 1)
	go func() { reset <- l.Reset() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("waiter released with error: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Reset did not release outstanding ticket")
	}
	park.unpark()
	for name, ch := range map[string]chan error{"leader": leader, "Reset": reset} {
		select {
		case err := <-ch:
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s never returned after the fsync was released", name)
		}
	}
	l.Close()
}

// With the first fsync parked, 49 more appends queue behind it; once it
// returns, one more fsync covers them all.
func TestGroupCommitBatchesConcurrentAppends(t *testing.T) {
	const records = 50
	dir := t.TempDir()
	l, park := openParked(t, dir)
	park.armed.Store(true)
	syncs0 := l.Syncs()

	errs := make(chan error, records)
	wait := func(tk *Ticket) { errs <- tk.Wait() }
	for i := 0; i < records; i++ {
		tk, err := l.Append(Record{Gen: uint64(i + 1), Payload: []byte(fmt.Sprintf("r%d", i))})
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		go wait(tk)
		if i == 0 {
			park.awaitParked(t)
		}
	}
	park.unpark()
	for i := 0; i < records; i++ {
		select {
		case err := <-errs:
			if err != nil {
				t.Fatalf("concurrent append: %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("appends never became durable")
		}
	}
	if n := l.Syncs() - syncs0; n > 2 {
		t.Errorf("%d appends took %d group fsyncs, want at most 2", records, n)
	}
	l.Close()
	_, rep := openT(t, dir, Options{})
	if len(rep.Records) != records {
		t.Fatalf("replayed %d, want %d", len(rep.Records), records)
	}
}

func TestFsyncFailurePoisonsLog(t *testing.T) {
	dir := t.TempDir()
	fs := faultfs.NewFaulty(11)
	l, _, err := Open(filepath.Join(dir, "wal"), Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	appendWait(t, l, Record{Gen: 1, Payload: []byte("pre")})

	// Exhaust the disk so the next append's write fails.
	fs.SetWriteBudget(3)
	_, err = l.Append(Record{Gen: 2, Payload: bytes.Repeat([]byte("x"), 100)})
	if err == nil {
		t.Fatal("append on full disk should fail")
	}
	fs.SetWriteBudget(-1)
	// Sticky: even with space back, the log stays dead.
	if _, err := l.Append(Record{Gen: 3}); err == nil {
		t.Fatal("poisoned log accepted an append")
	}
	if l.Err() == nil {
		t.Fatal("Err() should report the sticky failure")
	}
}

func TestPowercutNeverLosesAckedRecords(t *testing.T) {
	// Crash the filesystem at randomized write offsets, reopen, and
	// check every acked record survives replay, every time.
	base := t.TempDir()
	for seed := int64(0); seed < 30; seed++ {
		fs := faultfs.NewFaulty(seed)
		dir := filepath.Join(base, fmt.Sprintf("w%d", seed))
		acked := replayAcked(t, fs, dir, seed)
		fs.Crash()
		fs.Reopen()
		_, rep, err := Open(dir, Options{FS: fs, SegmentBytes: 512})
		if errors.Is(err, ErrCorrupt) {
			t.Fatalf("seed %d: crash artifact misread as corruption: %v", seed, err)
		}
		if err != nil {
			t.Fatalf("seed %d: reopen: %v", seed, err)
		}
		got := map[uint64]bool{}
		for _, r := range rep.Records {
			got[r.Gen] = true
		}
		for _, g := range acked {
			if !got[g] {
				t.Fatalf("seed %d: acked gen %d lost (replayed %d records)", seed, g, len(rep.Records))
			}
		}
	}
}

// replayAcked appends records until the filesystem crashes, returning
// the gens whose Wait returned nil.
func replayAcked(t *testing.T, fs *faultfs.Faulty, dir string, seed int64) []uint64 {
	t.Helper()
	l, _, err := Open(dir, Options{FS: fs, SegmentBytes: 512})
	if err != nil {
		t.Fatalf("seed %d: open: %v", seed, err)
	}
	fs.CrashAfterWrites(700 + seed*37)
	var acked []uint64
	for g := uint64(1); g <= 200; g++ {
		tk, err := l.Append(Record{Gen: g, Payload: bytes.Repeat([]byte{byte(g)}, int(seed%90))})
		if err != nil {
			break
		}
		if tk.Wait() == nil {
			acked = append(acked, g)
		} else {
			break
		}
	}
	l.Close()
	return acked
}
