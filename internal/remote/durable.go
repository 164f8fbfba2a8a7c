package remote

import (
	"os"
	"path/filepath"

	"repro/internal/faultfs"
	"repro/internal/server"
	"repro/internal/walog"
	"repro/internal/wire"
)

// Durable update path. An acknowledged update is durable the moment
// the client sees 200: the raw update-batch frame is appended to the
// database's write-ahead log and group-fsynced before the request ID
// enters the dedup table or the response goes out. Checkpoints — the
// whole database, blocks included, written as one snapshot file — run
// every checkpointEvery updates and truncate the log; recovery
// (persist.go) replays whatever the log holds past the last
// checkpoint. See DESIGN.md, "Durability model".

// recUpdateBatch is the one WAL record type: a raw wire.UpdateBatch
// frame exactly as the client sent it — one record per commit, so
// updates that committed as one generation replay as one atomic unit
// or not at all. (Types 1 and 2 carried frame formats since retired;
// recovery quarantines a log that still holds them.)
const recUpdateBatch byte = 3

// defaultCheckpointEvery bounds how many WAL records accumulate
// before a checkpoint truncates the log. Small enough that recovery
// replay stays cheap, large enough that the whole-database snapshot
// write is amortized across many cheap WAL appends.
const defaultCheckpointEvery = 64

// walDirExt names the one sidecar: dir/<name>.sxdb (snapshot) is
// accompanied by dir/<name>.wal/ (log segments).
const walDirExt = ".wal"

// PersistOptions tunes the durable engine of a persistent service.
// The zero value selects production defaults.
type PersistOptions struct {
	// FS is the filesystem seam; nil means the real one (fault
	// injection tests substitute faultfs.Faulty).
	FS faultfs.FS
	// CheckpointEvery is how many updates ride the WAL before a full
	// checkpoint truncates it; 0 selects defaultCheckpointEvery.
	CheckpointEvery int
}

// durable is the per-database persistence state, guarded by the
// hosted struct's mu like everything else on the update path.
type durable struct {
	name string
	wal  *walog.Log // nil while unrecoverably degraded
	// sinceCheckpoint counts WAL records since the last checkpoint.
	sinceCheckpoint int
	// degraded is set when the WAL cannot accept records (fsync
	// failure poisoned it, disk full, reopen failed): every update
	// then pays for a full checkpoint, which is slower but just as
	// durable. A successful checkpoint that reopens the log heals it.
	degraded bool
}

// RecoveryStats describes what recovery did for one database at
// startup, surfaced through the stats endpoint.
type RecoveryStats struct {
	// SnapshotGen is the generation the durable snapshot captured;
	// RecoveredGen is the generation after WAL replay.
	SnapshotGen  uint64 `json:"snapshotGen"`
	RecoveredGen uint64 `json:"recoveredGen"`
	// Replayed counts WAL records re-applied on top of the snapshot.
	Replayed int `json:"replayed"`
	// TornTail and TruncatedBytes report a partially written final
	// record discarded from the log (the expected signature of a
	// crash mid-append).
	TornTail       bool  `json:"tornTail"`
	TruncatedBytes int64 `json:"truncatedBytes"`
	// RootChecked reports that the recovered state was cross-checked
	// against an owner-signed Merkle root (the snapshot's, or the
	// last replayed update's).
	RootChecked bool `json:"rootChecked"`
}

// fs resolves the service's filesystem seam.
func (s *Service) fs() faultfs.FS {
	if s.pfs == nil {
		return faultfs.OS{}
	}
	return s.pfs
}

func (s *Service) walOpts() walog.Options {
	return walog.Options{FS: s.fs()}
}

func (s *Service) checkpointThreshold() int {
	if s.checkpointEvery > 0 {
		return s.checkpointEvery
	}
	return defaultCheckpointEvery
}

func (s *Service) walDir(name string) string {
	return filepath.Join(s.persistDir, name+walDirExt)
}

// persistUpload makes an uploaded database durable before publish
// exposes it: its snapshot goes over dir/<name>.sxdb, then the log is
// reset, since whatever it held belongs to the previous incarnation.
// A failed snapshot write leaves the previous incarnation's files as
// they were. Called with old's lock held (old is nil for a new name).
func (s *Service) persistUpload(name string, h, old *hosted) error {
	d := &durable{name: name}
	if old != nil {
		// Continue the name's generation count: every record the
		// previous incarnation logged is then at or below the new
		// snapshot's generation, so replay skips it should a crash land
		// between the snapshot's rename and the log reset below.
		h.srv.RestoreGeneration(old.srv.Generation())
	} else if err := s.fs().RemoveAll(s.walDir(name)); err != nil {
		// A log with no snapshot belongs to no database.
		return newPersistError(name, "clear wal", err)
	}
	if err := s.writeSnapshot(name, h.srv); err != nil {
		return err
	}
	if old != nil && old.dur != nil {
		// Take over the name's log. Resetting it releases the previous
		// incarnation's fsync waiters as durable: the new snapshot
		// supersedes their records.
		d.wal, old.dur.wal = old.dur.wal, nil
	}
	d.degraded = !s.resetWAL(d)
	h.dur = d
	return nil
}

// walSize reports the log's current size in bytes (0 when degraded
// without a log).
func (d *durable) walSize() int64 {
	if d.wal == nil {
		return 0
	}
	return d.wal.Size()
}

// close releases the WAL's file handle (re-upload of the same name,
// quarantine, service shutdown).
func (d *durable) close() {
	if d.wal != nil {
		d.wal.Close()
	}
}

// stageDurable records an applied update batch in the WAL. Called
// under h.mu immediately after the apply succeeded, so records enter
// the log in commit order. One batch is ONE record —
// one CRC frame, one group fsync, one atomic replay unit. It returns
// a ticket whose Wait blocks until the record's group fsync — the
// caller waits *outside* h.mu so one update's fsync doesn't serialize
// the next update's apply. A nil ticket with nil error means the
// update is already durable (a checkpoint ran instead of, or in
// addition to, the append).
func (s *Service) stageDurable(h *hosted, raw []byte) (*walog.Ticket, error) {
	d := h.dur
	var tk *walog.Ticket
	if d.wal != nil && !d.degraded {
		var err error
		tk, err = d.wal.Append(walog.Record{
			Epoch:   h.srv.Epoch(),
			Gen:     h.srv.Generation(),
			Type:    recUpdateBatch,
			Payload: raw,
		})
		if err != nil {
			d.degraded = true
			tk = nil
		}
	}
	d.sinceCheckpoint++
	if d.degraded || d.wal == nil || d.sinceCheckpoint >= s.checkpointThreshold() {
		// Either the WAL can't carry this update (degraded: the
		// checkpoint IS the durability) or it's time to truncate the
		// log anyway. The snapshot covers the update, so the WAL
		// ticket is moot.
		if err := s.checkpointLocked(h); err != nil {
			return nil, err
		}
		return nil, nil
	}
	return tk, nil
}

// ensureDurable waits for the update's WAL fsync. On fsync failure
// the log is poisoned; the fallback is a full checkpoint, which makes
// the update durable through the snapshot instead. Returns nil iff
// the update is durably on disk one way or the other.
func (s *Service) ensureDurable(h *hosted, tk *walog.Ticket) error {
	if tk == nil {
		return nil
	}
	if err := tk.Wait(); err == nil {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.retired {
		return errReplaced
	}
	h.dur.degraded = true
	return s.checkpointLocked(h)
}

// checkpointLocked writes the database's durable image over the
// .sxdb file and truncates the WAL. Called under h.mu. On success the
// WAL is empty; a WAL that cannot be truncated or reopened leaves the
// database degraded (every subsequent update checkpoints) without
// failing the update, because the snapshot already made the state
// durable.
func (s *Service) checkpointLocked(h *hosted) error {
	d := h.dur
	if err := s.writeSnapshot(d.name, h.srv); err != nil {
		return err
	}
	// The snapshot is durable: the update this checkpoint covers is
	// safe regardless of what happens to the log below.
	d.sinceCheckpoint = 0
	d.degraded = !s.resetWAL(d)
	return nil
}

// writeSnapshot writes srv's committed state — generation, Merkle
// root and the whole database, blocks included — atomically over
// dir/<name>.sxdb. The caller excludes updates (h.mu, or a server not
// yet published), so the db, root and generation read below describe
// one committed state. The db is the current generation's view: under
// MVCC the upload-time object goes stale at the first copy-on-write
// update.
func (s *Service) writeSnapshot(name string, srv *server.Server) error {
	root, err := srv.AuthRoot()
	if err != nil {
		return newPersistError(name, "snapshot root", err)
	}
	snap, err := wire.MarshalSnapshot(srv.CurrentDB(), srv.Generation(), root[:])
	if err != nil {
		return newPersistError(name, "snapshot encode", err)
	}
	return s.writeDBFile(name, snap)
}

// resetWAL empties the log after a checkpoint, replacing it wholesale
// when the old one is poisoned. Reports whether the database has a
// working log again.
func (s *Service) resetWAL(d *durable) bool {
	if d.wal != nil && d.wal.Err() == nil {
		if d.wal.Reset() == nil {
			return true
		}
	}
	if d.wal != nil {
		d.wal.Close()
		d.wal = nil
	}
	if err := s.fs().RemoveAll(s.walDir(d.name)); err != nil {
		return false
	}
	wal, _, err := walog.Open(s.walDir(d.name), s.walOpts())
	if err != nil {
		return false
	}
	d.wal = wal
	return true
}

// writeDBFile replaces dir/<name>.sxdb with payload, surviving a
// crash at any point: write to a temp file, fsync it, rename over
// the target, fsync the directory. Without the first fsync the
// rename can land before the data (a crash then serves garbage);
// without the second the rename itself can vanish.
func (s *Service) writeDBFile(name string, payload []byte) error {
	fsys := s.fs()
	final := filepath.Join(s.persistDir, name+dbFileExt)
	tmp := final + tmpSuffix
	f, err := fsys.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return newPersistError(name, "snapshot create", err)
	}
	if _, err := f.Write(payload); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return newPersistError(name, "snapshot write", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return newPersistError(name, "snapshot sync", err)
	}
	if err := f.Close(); err != nil {
		return newPersistError(name, "snapshot close", err)
	}
	if err := fsys.Rename(tmp, final); err != nil {
		return newPersistError(name, "snapshot rename", err)
	}
	if err := fsys.SyncDir(s.persistDir); err != nil {
		return newPersistError(name, "snapshot dir sync", err)
	}
	return nil
}

// Close releases every hosted database's WAL handle. The service
// must not take further requests.
func (s *Service) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, h := range s.dbs {
		if h.dur != nil {
			h.dur.close()
		}
	}
	return nil
}
