package remote

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/server"
	"repro/internal/walog"
	"repro/internal/wire"
)

// Disk persistence and recovery: a Service configured with a
// directory keeps each hosted database as one checksummed snapshot
// file holding the whole database, blocks included (dir/<name>.sxdb),
// plus a write-ahead log (dir/<name>.wal/) — the hosting provider
// surviving a crash at any instruction without ever holding a key.
// The durable state is always exactly one committed generation plus
// the log.
//
// Recovery, per database, at startup:
//
//  1. Load the snapshot and verify its SHA-256.
//  2. Open the WAL. A torn final record — the signature of a crash
//     mid-append — is truncated away; damage anywhere else is
//     corruption and quarantines the database.
//  3. Replay the records past the snapshot's generation, in order,
//     re-committing each update at the generation it originally
//     acknowledged and re-arming the request-ID dedup table.
//  4. Cross-check the recovered state against an owner-signed Merkle
//     root (the last replayed update's NewRoot, or the snapshot's
//     when the log was empty). A state that fails the check is
//     quarantined, never served.
//
// Corruption tolerance: a database that fails any step is moved —
// snapshot and log — to dir/quarantine/ and recorded, and
// startup continues with the remaining databases: one rotten file
// must not take down (or worse, silently poison) the whole host.

// dbFileExt is the on-disk extension for hosted databases;
// tmpSuffix marks an in-progress write before its atomic rename;
// quarantineDir is where corrupt files are moved on load.
const (
	dbFileExt     = ".sxdb"
	tmpSuffix     = ".tmp"
	quarantineDir = "quarantine"
)

// QuarantineRecord describes one corrupt database that was set aside
// at startup.
type QuarantineRecord struct {
	File   string // original file name
	Moved  string // path the snapshot file was moved to
	Reason string
}

// Quarantined reports the databases set aside by recovery because
// they failed a checksum, a decode, or the Merkle-root cross-check.
func (s *Service) Quarantined() []QuarantineRecord {
	return append([]QuarantineRecord(nil), s.quarantined...)
}

// Recoveries reports, per database, what recovery did at startup.
func (s *Service) Recoveries() map[string]RecoveryStats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := map[string]RecoveryStats{}
	for name, h := range s.dbs {
		if h.recovery != nil {
			out[name] = *h.recovery
		}
	}
	return out
}

// NewPersistentService loads every *.sxdb database in dir (creating
// the directory if needed) with default PersistOptions, and persists
// subsequent uploads and updates there. Corrupt databases are
// quarantined (see Quarantined), not fatal.
func NewPersistentService(dir string) (*Service, error) {
	return NewPersistentServiceOpts(dir, PersistOptions{})
}

// NewPersistentServiceOpts is NewPersistentService with explicit
// durability tuning (checkpoint interval, filesystem seam).
func NewPersistentServiceOpts(dir string, opts PersistOptions) (*Service, error) {
	s := NewService()
	s.persistDir = dir
	s.pfs = opts.FS
	s.checkpointEvery = opts.CheckpointEvery
	fsys := s.fs()
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("remote: create %s: %w", dir, err)
	}
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("remote: read %s: %w", dir, err)
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		// A leftover *.sxdb.tmp is a snapshot write that crashed
		// before its atomic rename: the durable state is still in the
		// *.sxdb file, so the partial write is garbage — remove it.
		if strings.HasSuffix(e.Name(), dbFileExt+tmpSuffix) {
			if err := fsys.Remove(filepath.Join(dir, e.Name())); err != nil {
				return nil, fmt.Errorf("remote: clean %s: %w", e.Name(), err)
			}
			continue
		}
		if !strings.HasSuffix(e.Name(), dbFileExt) {
			continue
		}
		if err := s.loadDB(e.Name()); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// loadDB recovers one database from its snapshot and WAL. Corruption
// quarantines the database and returns nil — recovery of the remaining
// databases continues; only filesystem-level failures (unreadable
// directory, failed rename) are returned.
func (s *Service) loadDB(fileName string) error {
	name := strings.TrimSuffix(fileName, dbFileExt)
	path := filepath.Join(s.persistDir, fileName)
	fsys := s.fs()
	fail := func(cause error) error {
		moved, qErr := s.quarantineDB(path, fileName, cause)
		if qErr != nil {
			return qErr
		}
		s.quarantined = append(s.quarantined, QuarantineRecord{
			File: fileName, Moved: moved, Reason: cause.Error(),
		})
		return nil
	}

	data, err := fsys.ReadFile(path)
	if err != nil {
		return fmt.Errorf("remote: load %s: %w", fileName, err)
	}
	// Anything but an SXDS2 frame fails its magic check here, and
	// damage past the magic fails the checksum.
	db, snapGen, snapRoot, err := wire.UnmarshalSnapshot(data)
	if err != nil {
		return fail(err)
	}

	wal, rep, err := walog.Open(s.walDir(name), s.walOpts())
	if err != nil {
		if errors.Is(err, walog.ErrCorrupt) {
			return fail(err)
		}
		return fmt.Errorf("remote: open wal for %s: %w", fileName, err)
	}

	srv := server.New(db)
	srv.RestoreGeneration(snapGen)
	h := newHosted(srv)
	replayed, rootChecked := 0, false
	var replayErr error
	for i, rec := range rep.Records {
		// Decode the record into the batch it commits; it replays
		// all-or-nothing, exactly as it originally acknowledged.
		if rec.Type != recUpdateBatch {
			replayErr = fmt.Errorf("wal record %d has unknown type %d", i, rec.Type)
			break
		}
		b, err := wire.UnmarshalUpdateBatch(rec.Payload)
		if err != nil {
			replayErr = fmt.Errorf("wal record %d: %w", i, err)
			break
		}
		if rec.Gen <= snapGen {
			continue // already captured by the snapshot
		}
		// Intermediate roots need not be re-verified — only the final
		// state is served — so strip them and let the batch apply's own
		// cross-check validate the very last update's NewRoot against
		// the fully recovered state.
		final := i == len(rep.Records)-1
		for j, upd := range b.Updates {
			if !final || j != len(b.Updates)-1 {
				upd.NewRoot = nil
			} else if len(upd.NewRoot) > 0 {
				rootChecked = true
			}
		}
		if err := srv.ApplyUpdateBatch(b.Updates); err != nil {
			replayErr = fmt.Errorf("wal record %d (gen %d): %w", i, rec.Gen, err)
			break
		}
		if got := srv.Generation(); got != rec.Gen {
			replayErr = fmt.Errorf("wal generation gap: record %d claims gen %d, replay reached %d", i, rec.Gen, got)
			break
		}
		if b.RequestID != 0 {
			h.rememberLocked(b.RequestID)
		}
		replayed++
	}
	if replayErr != nil {
		wal.Close()
		return fail(replayErr)
	}
	if replayed == 0 && len(snapRoot) > 0 {
		// Nothing replayed on top: the state must hash to exactly the
		// root the snapshot committed to.
		root, err := srv.AuthRoot()
		if err != nil {
			wal.Close()
			return fail(fmt.Errorf("recovered state root: %w", err))
		}
		if !bytes.Equal(root[:], snapRoot) {
			wal.Close()
			return fail(fmt.Errorf("recovered state root %x does not match snapshot root %x", root[:8], snapRoot[:8]))
		}
		rootChecked = true
	}

	h.dur = &durable{name: name, wal: wal, sinceCheckpoint: replayed}
	h.recovery = &RecoveryStats{
		SnapshotGen:    snapGen,
		RecoveredGen:   srv.Generation(),
		Replayed:       replayed,
		TornTail:       rep.TornTail,
		TruncatedBytes: rep.TruncatedBytes,
		RootChecked:    rootChecked,
	}
	s.dbs[name] = h
	return nil
}

// quarantineDB moves a corrupt database — snapshot file plus its WAL
// — into dir/quarantine/, returning the
// snapshot's destination path. Destinations are made unique with a
// ".N" suffix so a database quarantined twice (reload after re-host)
// never silently overwrites the earlier corpse.
func (s *Service) quarantineDB(path, fileName string, cause error) (string, error) {
	fsys := s.fs()
	qdir := filepath.Join(s.persistDir, quarantineDir)
	if err := fsys.MkdirAll(qdir, 0o755); err != nil {
		return "", fmt.Errorf("remote: quarantine %s: %w (while handling: %v)", fileName, err, cause)
	}
	dest := filepath.Join(qdir, fileName)
	suffix := ""
	for i := 1; ; i++ {
		if _, err := fsys.Stat(dest); errors.Is(err, os.ErrNotExist) {
			break
		}
		suffix = fmt.Sprintf(".%d", i)
		dest = filepath.Join(qdir, fileName+suffix)
	}
	if err := fsys.Rename(path, dest); err != nil {
		return "", fmt.Errorf("remote: quarantine %s: %w (while handling: %v)", fileName, err, cause)
	}
	// The log rides along under the same suffix, so the corpse stays
	// analyzable as a unit and a re-hosted database starts clean.
	name := strings.TrimSuffix(fileName, dbFileExt)
	wal := filepath.Join(s.persistDir, name+walDirExt)
	if _, err := fsys.Stat(wal); err == nil {
		if err := fsys.Rename(wal, filepath.Join(qdir, name+walDirExt+suffix)); err != nil {
			return "", fmt.Errorf("remote: quarantine %s log: %w (while handling: %v)", fileName, err, cause)
		}
	}
	if err := fsys.SyncDir(s.persistDir); err != nil {
		return "", fmt.Errorf("remote: quarantine %s: sync dir: %w", fileName, err)
	}
	if err := fsys.SyncDir(qdir); err != nil {
		return "", fmt.Errorf("remote: quarantine %s: sync quarantine dir: %w", fileName, err)
	}
	return dest, nil
}
