package server

import (
	"bytes"
	"fmt"

	"repro/internal/authtree"
	"repro/internal/wire"
)

// ApplyUpdateBatch applies one or more owner-issued mutations as one
// atomic step: block ciphertexts are replaced and every dropped band
// of the value index is replaced by its new run. Structure (DSI
// tables, block table, forest) is untouched — updates in this
// extension are value-level and structure-preserving (see
// wire.Update). All members commit or none do, with ONE index
// advance, ONE incremental Merkle advance (a multi-leaf delta over the
// whole batch — never a per-update from-scratch BuildAuthState) and
// ONE generation bump. Members are applied in order, so a later
// member's band replacement supersedes an earlier one's.
//
// Copy-on-write: the batch never mutates the committed snapshot. It
// copies the block map header, installs the replaced band runs into a
// new index that shares every untouched band with the committed one,
// and advances the auth state — all into a candidate generation-N+1
// snapshot. A validation or root-check failure simply discards the
// candidate (there is nothing to revert, the committed snapshot was
// never touched); success publishes it with a single atomic store.
// Writers serialize on wmu; readers pin whichever snapshot is current
// and proceed lock-free.
//
// Root cross-check: members are prepared against a chain (each sees
// the state its predecessors produce), so only the final member's
// NewRoot commits to the post-batch state and only it is checked.
// A corrupted member anywhere makes that final root diverge, which
// rejects — and discards — the whole batch. Root-bearing members in
// non-final position (a replayed WAL record trimmed mid-chain) are
// ignored: their roots describe states this batch never exposes.
func (s *Server) ApplyUpdateBatch(us []*wire.Update) error {
	if len(us) == 0 {
		return fmt.Errorf("server: empty update batch")
	}
	s.wmu.Lock()
	defer s.wmu.Unlock()
	cur := s.current()
	// Validate everything up front against the committed snapshot;
	// no state exists yet to clean up on failure.
	for _, u := range us {
		for _, b := range u.Blocks {
			if b.ID < 0 || b.ID >= len(cur.db.Blocks) {
				return fmt.Errorf("server: update references unknown block %d", b.ID)
			}
		}
		for _, e := range u.AddEntries {
			if e.BlockID < 0 || e.BlockID >= len(cur.db.Blocks) {
				return fmt.Errorf("server: update entry references unknown block %d", e.BlockID)
			}
		}
		if len(u.NewRoot) > 0 && len(u.NewRoot) != authtree.DigestSize {
			return fmt.Errorf("server: update root is %d bytes, want %d", len(u.NewRoot), authtree.DigestSize)
		}
	}
	bands, err := wire.ReplacedBands(us)
	if err != nil {
		return fmt.Errorf("server: %w", err)
	}

	// Build generation N+1 off to the side. The new db shares every
	// unchanged ciphertext slice with the old one; only the slice
	// header (and replaced positions) are fresh, and the new index
	// shares every band the batch does not drop.
	nextDB := snapshotDB(cur.db)
	for _, u := range us {
		for _, b := range u.Blocks {
			nextDB.Blocks[b.ID] = b.Ciphertext
		}
	}
	nextIndex := cur.index
	if len(bands) > 0 {
		nextIndex = cur.index.With(bands)
	}
	next := &snapshot{gen: cur.gen + 1, db: nextDB, index: nextIndex, st: cur.st}

	// Seed the candidate's Merkle prover incrementally from the
	// committed one when it exists: one multi-leaf delta replaces what
	// used to be a full rebuild (wire round trip of the whole
	// database) on the next proof. A never-built state stays lazy.
	cur.authMu.Lock()
	prevAuth := cur.auth
	cur.authMu.Unlock()
	if prevAuth != nil {
		adv, err := prevAuth.ApplyUpdates(us, nextIndex)
		if err != nil {
			return fmt.Errorf("server: update auth advance: %w", err)
		}
		next.auth = adv
	}

	if root := us[len(us)-1].NewRoot; len(root) > 0 {
		// The client precomputed the post-batch root; recompute ours
		// on the candidate and refuse on mismatch, so a corrupted or
		// truncated batch never becomes the committed generation. The
		// candidate is simply dropped — the committed snapshot was
		// never touched.
		st, err := next.authState()
		if err != nil {
			return fmt.Errorf("server: update root check: %w", err)
		}
		got := st.Root()
		if !bytes.Equal(got[:], root) {
			return fmt.Errorf("server: update rejected: recomputed root %x does not match client root %x",
				got[:8], root[:8])
		}
	}
	// Publish: the one store below IS the commit. Every cross-query
	// cache (plans, range resolutions, answer envelopes — here and in
	// clients echoing this counter) invalidates wholesale because the
	// new snapshot carries generation N+1; readers that pinned the old
	// snapshot finish against it and their cache inserts for the old
	// generation are rejected by the monotonic policy. A rejected
	// batch never publishes and deliberately does NOT bump: caches
	// built against the committed state are still correct.
	s.snap.Store(next)
	return nil
}
