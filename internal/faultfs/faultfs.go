// Package faultfs is the filesystem seam under the durable-storage
// stack (internal/walog and internal/remote's snapshot
// persistence). Production code runs on OS, a thin veneer over the
// os package; tests run on Faulty, which wraps OS with the failure
// modes real disks exhibit under power loss and exhaustion:
//
//   - torn writes: a crash cuts an in-flight write mid-way, leaving a
//     partial record (optionally with a garbled final byte, the way a
//     half-programmed sector reads back);
//   - lost unsynced data: anything written after the last successful
//     Sync is discarded at crash;
//   - lost directory entries: a created or renamed file whose parent
//     directory was never fsynced vanishes (or reverts) at crash —
//     the classic "rename is not durable without a dir fsync";
//   - fsync lies: Sync returns success without making anything
//     durable (firmware write caches, virtio defaults);
//   - ENOSPC: writes fail — possibly part-way through — once a byte
//     budget is exhausted;
//   - crash-at-offset kills: the process "dies" after a configured
//     number of bytes reach the disk, failing every later operation.
//
// Faulty operates on a real directory: after Crash + Reopen the
// on-disk state is exactly what a machine would find after power
// loss, so recovery code under test reads real files, not mocks.
package faultfs

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"syscall"
)

// FS is the slice of filesystem the durability stack needs. All
// paths are interpreted as the os package would.
type FS interface {
	MkdirAll(path string, perm os.FileMode) error
	// OpenFile opens path with os.OpenFile semantics for writing
	// (reads go through ReadFile; the stack never mixes the two on
	// one handle).
	OpenFile(path string, flag int, perm os.FileMode) (File, error)
	ReadFile(path string) ([]byte, error)
	Rename(oldpath, newpath string) error
	Remove(path string) error
	RemoveAll(path string) error
	ReadDir(path string) ([]os.DirEntry, error)
	Stat(path string) (os.FileInfo, error)
	// SyncDir fsyncs a directory, making its entries (creations,
	// renames, removals) durable.
	SyncDir(path string) error
}

// File is a writable file handle.
type File interface {
	io.Writer
	io.Closer
	Sync() error
	Truncate(size int64) error
	Name() string
}

// OS is the production FS: the os package, plus directory fsync.
type OS struct{}

func (OS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }

func (OS) OpenFile(path string, flag int, perm os.FileMode) (File, error) {
	return os.OpenFile(path, flag, perm)
}

func (OS) ReadFile(path string) ([]byte, error)       { return os.ReadFile(path) }
func (OS) Rename(oldpath, newpath string) error       { return os.Rename(oldpath, newpath) }
func (OS) Remove(path string) error                   { return os.Remove(path) }
func (OS) RemoveAll(path string) error                { return os.RemoveAll(path) }
func (OS) ReadDir(path string) ([]os.DirEntry, error) { return os.ReadDir(path) }
func (OS) Stat(path string) (os.FileInfo, error)      { return os.Stat(path) }

// SyncDir opens the directory and fsyncs it — the only portable way
// to make renames and creations durable on POSIX filesystems.
func (OS) SyncDir(path string) error {
	d, err := os.Open(path)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// ErrCrashed is returned by every operation on a Faulty filesystem
// between Crash (or a triggered crash-at-offset kill) and Reopen —
// the process this FS belonged to is dead.
var ErrCrashed = errors.New("faultfs: filesystem crashed")

// Faulty wraps the real filesystem with injectable faults. Safe for
// concurrent use.
type Faulty struct {
	mu   sync.Mutex
	os   OS
	rng  *rand.Rand
	seed int64

	crashed  bool
	lieSync  bool
	tornTail bool

	// writeBudget < 0 disables the ENOSPC injection; otherwise every
	// written byte decrements it and a write that would cross zero is
	// cut short with ENOSPC.
	writeBudget int64
	// crashAfter < 0 disables the kill trigger; otherwise the
	// filesystem crashes the instant total writes reach it, tearing
	// the write in flight.
	crashAfter   int64
	totalWritten int64

	// files tracks durability state of every path written since the
	// last Reopen; untracked files predate this "boot" and are fully
	// durable.
	files map[string]*fstate
	// renames are entry-level changes not yet covered by a parent
	// directory fsync, applied in order and undone in reverse at
	// crash.
	renames []renameUndo
}

type fstate struct {
	size    int64 // current real length
	durable int64 // length that survives a crash
	// born marks a file created since Reopen whose directory entry
	// has not been fsynced: it vanishes entirely at crash.
	born bool
}

type renameUndo struct {
	dir      string // parent directory whose fsync makes this durable
	old, new string
	// oldData is the source file's content at rename time (restored
	// under the old name at crash — the old entry may survive).
	oldData []byte
	// prevTarget is the clobbered target's content when the target
	// existed and was durable; nil otherwise.
	prevTarget []byte
	hadTarget  bool
	oldWasBorn bool
	oldDurable int64
}

// NewFaulty wraps the real filesystem with fault injection.
// Torn-tail simulation (a crash keeping a random prefix of unsynced
// bytes, with the last kept byte possibly garbled) is on by default.
func NewFaulty(seed int64) *Faulty {
	return &Faulty{
		os:          OS{},
		rng:         rand.New(rand.NewSource(seed)),
		seed:        seed,
		tornTail:    true,
		writeBudget: -1,
		crashAfter:  -1,
		files:       map[string]*fstate{},
	}
}

// LieOnSync makes Sync and SyncDir report success without making
// anything durable — the firmware-write-cache failure mode.
func (f *Faulty) LieOnSync(on bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.lieSync = on
}

// TornTails controls whether crashes keep a garbled partial tail of
// unsynced data (true, the default) or cut cleanly at the last
// synced byte.
func (f *Faulty) TornTails(on bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.tornTail = on
}

// SetWriteBudget arms the ENOSPC injection: after n more written
// bytes, writes fail with syscall.ENOSPC (cut short mid-write, the
// way a full disk actually fails). n < 0 disarms it.
func (f *Faulty) SetWriteBudget(n int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.writeBudget = n
}

// CrashAfterWrites arms the kill trigger: the filesystem crashes as
// soon as n more bytes have been written, tearing the write in
// flight. n < 0 disarms it.
func (f *Faulty) CrashAfterWrites(n int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if n < 0 {
		f.crashAfter = -1
		return
	}
	f.crashAfter = f.totalWritten + n
}

// Crashed reports whether the filesystem is currently dead.
func (f *Faulty) Crashed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.crashed
}

// Crash simulates power loss: every byte written since the last
// successful Sync is lost (with an optional torn tail), entries
// never covered by a directory fsync vanish or revert, and every
// subsequent operation fails with ErrCrashed until Reopen.
func (f *Faulty) Crash() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.crashLocked()
}

func (f *Faulty) crashLocked() {
	if f.crashed {
		return
	}
	f.crashed = true
	// Data-level damage first (births vanish, unsynced tails tear),
	// then entry-level rename undos — the other order would let a
	// born-entry removal clobber a just-restored rename target.
	for path, st := range f.files {
		if st.born {
			os.Remove(path)
			continue
		}
		if st.durable >= st.size {
			continue
		}
		keep := st.durable
		if f.tornTail && st.size > st.durable {
			// A prefix of the unsynced tail may have reached the
			// platter; its last byte may be half-programmed.
			keep += f.rng.Int63n(st.size - st.durable + 1)
		}
		fh, err := os.OpenFile(path, os.O_RDWR, 0o644)
		if err != nil {
			continue
		}
		fh.Truncate(keep)
		if f.tornTail && keep > st.durable && f.rng.Intn(2) == 0 {
			var b [1]byte
			if _, err := fh.ReadAt(b[:], keep-1); err == nil {
				b[0] ^= 0xFF
				fh.WriteAt(b[:], keep-1)
			}
		}
		fh.Close()
	}
	f.files = map[string]*fstate{}
	// Undo entry-level changes newest-first: a rename chain undoes
	// back to the last durable arrangement.
	for i := len(f.renames) - 1; i >= 0; i-- {
		r := f.renames[i]
		os.Remove(r.new)
		if r.hadTarget {
			os.WriteFile(r.new, r.prevTarget, 0o644)
		}
		if !r.oldWasBorn {
			data := r.oldData
			if r.oldDurable < int64(len(data)) {
				// Only the source's durable prefix survives under the
				// restored old name.
				data = data[:r.oldDurable]
			}
			os.WriteFile(r.old, data, 0o644)
		}
	}
	f.renames = nil
}

// Reopen brings the filesystem back after a crash — the next
// process's boot. All surviving on-disk state is durable; tracking
// starts over. Fault arming (budgets, triggers, sync lies) is
// cleared.
func (f *Faulty) Reopen() {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.crashed {
		// Crash first so "reopen without crash" cannot silently keep
		// unsynced data alive across what tests treat as a reboot.
		f.crashLocked()
	}
	f.crashed = false
	f.lieSync = false
	f.writeBudget = -1
	f.crashAfter = -1
	f.files = map[string]*fstate{}
	f.renames = nil
}

func (f *Faulty) state(path string) *fstate {
	path = filepath.Clean(path)
	st, ok := f.files[path]
	if !ok {
		st = &fstate{}
		if fi, err := os.Stat(path); err == nil {
			// Pre-existing file: everything on disk predates this
			// boot and is durable.
			st.size, st.durable = fi.Size(), fi.Size()
		} else {
			st.born = true
		}
		f.files[path] = st
	}
	return st
}

func (f *Faulty) MkdirAll(path string, perm os.FileMode) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return ErrCrashed
	}
	// Directory creations are modeled as immediately durable: the
	// interesting fault surface is file data and entries, and the
	// stack re-creates directories idempotently at boot anyway.
	return f.os.MkdirAll(path, perm)
}

func (f *Faulty) OpenFile(path string, flag int, perm os.FileMode) (File, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return nil, ErrCrashed
	}
	// Establish tracking before the open can create the file, so a
	// fresh file is correctly "born" (gone at crash unless its
	// directory is fsynced).
	st := f.state(path)
	fh, err := f.os.OpenFile(path, flag, perm)
	if err != nil {
		return nil, err
	}
	if flag&os.O_TRUNC != 0 {
		st.size, st.durable = 0, 0
	}
	return &faultyFile{f: f, fh: fh, path: filepath.Clean(path)}, nil
}

func (f *Faulty) ReadFile(path string) ([]byte, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return nil, ErrCrashed
	}
	return f.os.ReadFile(path)
}

func (f *Faulty) Rename(oldpath, newpath string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return ErrCrashed
	}
	oldpath, newpath = filepath.Clean(oldpath), filepath.Clean(newpath)
	undo := renameUndo{dir: filepath.Dir(newpath), old: oldpath, new: newpath}
	if data, err := os.ReadFile(oldpath); err == nil {
		undo.oldData = data
	}
	ost := f.state(oldpath)
	undo.oldWasBorn, undo.oldDurable = ost.born, ost.durable
	if prev, err := os.ReadFile(newpath); err == nil {
		tst := f.state(newpath)
		if !tst.born {
			undo.hadTarget = true
			if tst.durable < int64(len(prev)) {
				undo.prevTarget = prev[:tst.durable]
			} else {
				undo.prevTarget = prev
			}
		}
	}
	if err := f.os.Rename(oldpath, newpath); err != nil {
		return err
	}
	f.renames = append(f.renames, undo)
	// The new entry inherits the source's content durability (the
	// bytes were synced or not independent of the name), but the
	// entry itself is born: it needs a directory fsync to survive.
	nst := &fstate{size: ost.size, durable: ost.durable, born: true}
	f.files[newpath] = nst
	delete(f.files, oldpath)
	return nil
}

func (f *Faulty) Remove(path string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return ErrCrashed
	}
	err := f.os.Remove(path)
	if err == nil {
		delete(f.files, filepath.Clean(path))
	}
	return err
}

func (f *Faulty) RemoveAll(path string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return ErrCrashed
	}
	err := f.os.RemoveAll(path)
	if err == nil {
		clean := filepath.Clean(path)
		for p := range f.files {
			if p == clean || isUnder(p, clean) {
				delete(f.files, p)
			}
		}
	}
	return err
}

func isUnder(p, dir string) bool {
	rel, err := filepath.Rel(dir, p)
	return err == nil && rel != ".." && !filepath.IsAbs(rel) &&
		(len(rel) < 3 || rel[:3] != ".."+string(filepath.Separator))
}

func (f *Faulty) ReadDir(path string) ([]os.DirEntry, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return nil, ErrCrashed
	}
	return f.os.ReadDir(path)
}

func (f *Faulty) Stat(path string) (os.FileInfo, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return nil, ErrCrashed
	}
	return f.os.Stat(path)
}

func (f *Faulty) SyncDir(path string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return ErrCrashed
	}
	if f.lieSync {
		return nil
	}
	dir := filepath.Clean(path)
	// Entries in this directory become durable: births stick, pending
	// renames under it are committed.
	for p, st := range f.files {
		if filepath.Dir(p) == dir {
			st.born = false
		}
	}
	kept := f.renames[:0]
	for _, r := range f.renames {
		if r.dir != dir {
			kept = append(kept, r)
		}
	}
	f.renames = kept
	return f.os.SyncDir(path)
}

type faultyFile struct {
	f    *Faulty
	fh   File
	path string
}

func (ff *faultyFile) Name() string { return ff.path }

func (ff *faultyFile) Write(p []byte) (int, error) {
	f := ff.f
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return 0, ErrCrashed
	}
	n := len(p)
	var after error
	if f.writeBudget >= 0 && int64(n) > f.writeBudget {
		n = int(f.writeBudget)
		after = &os.PathError{Op: "write", Path: ff.path, Err: syscall.ENOSPC}
	}
	if f.crashAfter >= 0 && f.totalWritten+int64(n) >= f.crashAfter {
		n = int(f.crashAfter - f.totalWritten)
		after = ErrCrashed
	}
	wrote := 0
	var werr error
	if n > 0 {
		wrote, werr = ff.fh.Write(p[:n])
	}
	f.totalWritten += int64(wrote)
	if f.writeBudget >= 0 {
		f.writeBudget -= int64(wrote)
	}
	f.state(ff.path).size += int64(wrote)
	if errors.Is(after, ErrCrashed) {
		f.crashLocked()
	}
	if werr != nil {
		return wrote, werr
	}
	if after != nil {
		return wrote, after
	}
	return wrote, nil
}

func (ff *faultyFile) Sync() error {
	f := ff.f
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return ErrCrashed
	}
	if f.lieSync {
		return nil
	}
	if err := ff.fh.Sync(); err != nil {
		return err
	}
	st := f.state(ff.path)
	st.durable = st.size
	return nil
}

func (ff *faultyFile) Truncate(size int64) error {
	f := ff.f
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return ErrCrashed
	}
	if err := ff.fh.Truncate(size); err != nil {
		return err
	}
	st := f.state(ff.path)
	st.size = size
	if st.durable > size {
		st.durable = size
	}
	return nil
}

func (ff *faultyFile) Close() error {
	// Closing never syncs — exactly like the real thing.
	return ff.fh.Close()
}

// String describes the armed faults (test logging).
func (f *Faulty) String() string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return fmt.Sprintf("faultfs(seed=%d crashed=%v lieSync=%v budget=%d crashAfter=%d written=%d)",
		f.seed, f.crashed, f.lieSync, f.writeBudget, f.crashAfter, f.totalWritten)
}
