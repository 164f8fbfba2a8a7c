package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/btree"
	"repro/internal/wire"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// ErrUpdatePending reports that an earlier update's outcome is
// ambiguous — the backend failed in a way that may have lost only the
// acknowledgment, not the update. The client state is already
// rewritten, so further updates (and, with integrity enabled,
// verified queries) are refused until Reconcile resolves it.
var ErrUpdatePending = errors.New("core: an update with ambiguous outcome is pending; call Reconcile")

// UpdateLeafValues sets the value of every leaf node selected by q
// to newValue, re-encrypting the affected blocks and re-issuing the
// value-index bands of every touched attribute (the paper's future
// work #3, §8 — see wire.Update for the design). Only encrypted
// targets are supported: plaintext residue values would require
// residue rewriting, which this extension does not cover. It returns
// the number of values changed.
func (s *System) UpdateLeafValues(q string, newValue string) (int, error) {
	return s.UpdateLeafValuesContext(context.Background(), q, newValue)
}

// UpdateLeafValuesContext is UpdateLeafValues with a caller-supplied
// context bounding the backend round trips. It holds the System's
// exclusive lock for the whole read-modify-write cycle: the client's
// occurrence tables and OPESS bands, the HostedDB mirror and the
// hosted blocks all change together, and concurrent queries (which
// hold the shared lock) must see either the pre-update or the
// post-update state, never a mix.
func (s *System) UpdateLeafValuesContext(ctx context.Context, q string, newValue string) (int, error) {
	n, _, err := s.UpdateLeafValuesTimed(ctx, q, newValue)
	return n, err
}

// UpdateLeafValuesTimed is UpdateLeafValuesContext with the update
// pipeline's timing breakdown. The prepared update joins the batch
// under the lock; the member that fills the batch (every member, at
// the default size of one) sends it before releasing the lock, and
// the others wait off the lock for that shared commit.
func (s *System) UpdateLeafValuesTimed(ctx context.Context, q string, newValue string) (int, Timings, error) {
	path, err := xpath.Parse(q)
	if err != nil {
		return 0, Timings{}, err
	}
	for {
		n, tm, retry, err := s.updateOnce(ctx, path, q, newValue)
		if retry {
			continue
		}
		return n, tm, err
	}
}

// updateOnce runs one attempt of the update pipeline. retry=true
// means the read half raced a queued batch that touched its target
// blocks; the batch was flushed and the whole read-modify-write must
// redo against the settled state.
func (s *System) updateOnce(ctx context.Context, path *xpath.Path, q, newValue string) (int, Timings, bool, error) {
	var tm Timings
	s.mu.Lock()
	if s.pending != nil {
		s.mu.Unlock()
		return 0, tm, false, ErrUpdatePending
	}

	// Writer pre-read barrier: if a queued member rewrote an OPESS
	// band this update's own value comparisons translate through, the
	// read below would be built from tables the server hasn't caught
	// up to yet. Flush first (we hold the exclusive lock, so the queue
	// is empty afterwards and the prepare sees settled state).
	if keys, unknown := cmpKeys(path); s.queuedBandConflictLocked(keys, unknown) {
		if err := s.flushBatchLocked(ctx); err != nil {
			s.mu.Unlock()
			return 0, tm, false, err
		}
	}

	prep, conflict, err := s.prepareUpdateLocked(ctx, path, q, newValue)
	if conflict {
		// Writer post-read barrier: the answer's blocks intersect a
		// queued member's re-encryptions — reading the pre-batch
		// ciphertext would lose the queued edit. Flush and redo.
		ferr := s.flushBatchLocked(ctx)
		s.mu.Unlock()
		if ferr != nil {
			return 0, tm, false, ferr
		}
		return 0, tm, true, nil
	}
	if err != nil || prep == nil {
		// The prepare may have partially rewritten client tables
		// before failing; republish so readers pin the live state.
		s.publishLocked()
		s.mu.Unlock()
		return 0, tm, false, err
	}

	// Every update commits as a member of a batch. The member that
	// fills it flushes inline, still under the lock; otherwise the
	// first member arms the timer that flushes a batch that never
	// fills, and the enqueue is published so readers pinned from here
	// on see this member's bands in the conflict fingerprint (and the
	// rewritten transformer table that goes with them).
	b := &s.updBatch
	qe := &queuedEdit{prep: prep, done: make(chan batchOutcome, 1)}
	b.queue = append(b.queue, qe)
	enqueuedAt := time.Now()
	if len(b.queue) >= b.size {
		s.flushBatchLocked(ctx)
	} else {
		s.publishLocked()
		if len(b.queue) == 1 {
			b.timer = time.AfterFunc(b.maxWait, func() {
				s.FlushUpdates(context.Background())
			})
		}
	}
	s.mu.Unlock()

	out := <-qe.done
	tm.UpdateBatchSize = out.batchSize
	if d := out.flushStart.Sub(enqueuedAt); d > 0 {
		tm.UpdateEnqueue = d
	}
	tm.UpdateApply = out.applyDur
	tm.UpdateFlushWait = time.Since(enqueuedAt)
	if out.err != nil {
		return 0, tm, false, out.err
	}
	return prep.edits, tm, false, nil
}

// prepareUpdateLocked is the read-modify-write half of an update: the
// verified read, the in-memory edits, the client table rewrite, the
// band and block re-issue, and the chained verifier advance. It does
// NOT set the member's NewRoot (the flush gives it to the batch tail)
// and does NOT contact the backend beyond the read. (nil, false, nil)
// means no values changed; conflict=true means the read's blocks
// collide with the queued batch and the caller must flush and redo.
// Caller holds s.mu exclusively.
func (s *System) prepareUpdateLocked(ctx context.Context, path *xpath.Path, q, newValue string) (*preparedUpdate, bool, error) {
	qs, err := s.Client.Translate(path)
	if err != nil {
		return nil, false, err
	}
	// The read half of the read-modify-write travels the query path:
	// an update must not be computed from an answer the server could
	// have forged, whether or not the transport verifies. The
	// exclusive lock keeps the ring from advancing, so the check is at
	// its current commitment.
	ans, blocks, err := s.execute(ctx, s.Server, s.ring, s.ring.pinSeq(), qs, &Timings{})
	if err != nil {
		return nil, false, err
	}
	if s.queuedBlockConflictLocked(ans.BlockIDs) {
		return nil, true, nil
	}
	res, err := s.Client.PostProcessFull(path, ans, blocks)
	if err != nil {
		return nil, false, err
	}
	if len(res.Nodes) == 0 {
		return nil, false, nil
	}

	type edit struct {
		tagKey   string
		oldValue string
		blockID  int
	}
	touchedBlocks := map[int]*xmltree.Node{} // block id -> content root
	touchedAttrs := map[string]bool{}
	var edits []edit
	for _, n := range res.Nodes {
		if !n.IsLeaf() || n.Kind == xmltree.Text {
			return nil, false, fmt.Errorf("core: update target %s is not a leaf", q)
		}
		bid, content, ok := blockOf(n, res.BlockOf)
		if !ok {
			return nil, false, fmt.Errorf("core: update target %s is stored in plaintext; only encrypted values can be updated", q)
		}
		old := n.LeafValue()
		if old == newValue {
			continue
		}
		key := n.Tag
		if n.Kind == xmltree.Attribute {
			key = "@" + n.Tag
		}
		n.SetLeafValue(newValue)
		touchedBlocks[bid] = content
		touchedAttrs[key] = true
		edits = append(edits, edit{tagKey: key, oldValue: old, blockID: bid})
	}
	if len(edits) == 0 {
		return nil, false, nil
	}

	for _, e := range edits {
		if err := s.Client.ApplyValueEdit(e.tagKey, e.oldValue, newValue, e.blockID); err != nil {
			return nil, false, err
		}
	}

	upd := &wire.Update{}
	for key := range touchedAttrs {
		entries, band, err := s.Client.RebuildEntries(key)
		if err != nil {
			return nil, false, err
		}
		upd.DropBands = append(upd.DropBands, band)
		upd.AddEntries = append(upd.AddEntries, entries...)
	}
	for bid, content := range touchedBlocks {
		ct, err := s.Client.ReencryptBlock(content)
		if err != nil {
			return nil, false, err
		}
		upd.Blocks = append(upd.Blocks, wire.BlockUpdate{ID: bid, Ciphertext: ct})
	}

	// With integrity enabled, precompute this member's post-state on
	// a clone chained from its predecessor — the batch tail when
	// anything is queued, the ring's current verifier otherwise. The
	// clone only advances the ring once the server acks; a failed
	// update leaves the commitment at the pre-update state.
	var base *wire.AuthVerifier
	if s.ring != nil {
		base = s.ring.Current()
	}
	if q := s.updBatch.queue; len(q) > 0 {
		base = q[len(q)-1].prep.next
	}
	var nextVerifier *wire.AuthVerifier
	if base != nil {
		nextVerifier = base.Clone()
		if err := nextVerifier.ApplyUpdate(upd); err != nil {
			return nil, false, err
		}
	}
	return &preparedUpdate{upd: upd, next: nextVerifier, edits: len(edits)}, false, nil
}

// commitBatchLocked finishes an acknowledged batch: promote the tail
// member's verifier clone and apply the mirror. Caller holds the
// exclusive lock.
func (s *System) commitBatchLocked(b *wire.UpdateBatch, nextVerifier *wire.AuthVerifier) {
	if nextVerifier != nil && s.ring != nil {
		// Advance the ring: remote.WithVerifier shares the RING, so
		// the transport sees the new root without re-wiring, while an
		// answer produced against the pre-update root (a reader whose
		// round trip this commit raced) still verifies against the
		// retired tail. Advance finalizes the (possibly deferred)
		// root before publication.
		s.ring.Advance(nextVerifier)
	}
	for _, u := range b.Updates {
		s.mirrorUpdate(u)
	}
}

// ambiguousUpdateFailure reports whether an ApplyUpdateBatch error leaves
// the server's state in doubt. An in-process backend fails
// atomically (the server reverts before returning), and a definitive
// HTTP rejection (4xx: the update never applied) is equally final.
// Everything else — transport failures, timeouts, 5xx (the server
// applied in memory but could not make it durable) — may have lost
// only the acknowledgment.
func ambiguousUpdateFailure(b Backend, err error) bool {
	if _, ok := b.(Local); ok {
		return false
	}
	var t interface{ Temporary() bool }
	if errors.As(err, &t) {
		return t.Temporary()
	}
	return true
}

// Reconcile resolves a pending ambiguous update by resending the
// stashed batch under its original request ID: the server either
// acknowledges from its dedup table (the batch had landed; the ack was
// lost) or applies it fresh (idempotently). On success the client
// commitment and mirror advance and the System serves verified queries
// again; on another ambiguous failure the update stays pending and
// Reconcile can be called again. It reports the number of values the
// reconciled update had changed. With nothing pending it returns
// (0, nil).
func (s *System) Reconcile(ctx context.Context) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.pending == nil {
		return 0, nil
	}
	p := s.pending
	// The resend may land server-side whatever happens to the ack;
	// readers in flight across it must re-pin (same rule as a flush).
	s.updSeq.Add(1)
	if p.nextVerifier != nil && s.ring != nil {
		s.ring.Stage(p.nextVerifier)
	}
	defer s.publishLocked()
	if err := s.Server.ApplyUpdateBatch(ctx, p.batch); err != nil {
		if ambiguousUpdateFailure(s.Server, err) {
			return 0, errors.Join(err, ErrUpdatePending)
		}
		// A definite rejection of the resend: the server never held
		// the update (a dedup ack would have been a 200). The pending
		// state is unwound as far as possible — commitment and mirror
		// stay at the pre-update state — and the caller decides
		// whether to re-issue the whole edit.
		if p.nextVerifier != nil && s.ring != nil {
			s.ring.Unstage(p.nextVerifier)
		}
		s.pending = nil
		return 0, err
	}
	s.commitBatchLocked(p.batch, p.nextVerifier)
	s.pending = nil
	return p.edits, nil
}

// UpdatePending reports whether an ambiguous update awaits Reconcile.
func (s *System) UpdatePending() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.pending != nil
}

// blockOf walks the ancestor chain to the nearest decrypted block
// content root.
func blockOf(n *xmltree.Node, prov map[*xmltree.Node]int) (int, *xmltree.Node, bool) {
	for cur := n; cur != nil; cur = cur.Parent {
		if id, ok := prov[cur]; ok {
			return id, cur, true
		}
	}
	return 0, nil, false
}

// mirrorUpdate applies an update to the client-side HostedDB copy so
// NaiveQuery and size accounting stay coherent. Dropping a band and
// re-adding its entries is idempotent, so this is safe whether the
// backend shares the HostedDB (in-process) or not (remote).
func (s *System) mirrorUpdate(u *wire.Update) {
	for _, b := range u.Blocks {
		if b.ID >= 0 && b.ID < len(s.HostedDB.Blocks) {
			s.HostedDB.Blocks[b.ID] = b.Ciphertext
		}
	}
	if len(u.DropBands) == 0 && len(u.AddEntries) == 0 {
		return
	}
	drop := map[uint8]bool{}
	for _, b := range u.DropBands {
		drop[b] = true
	}
	var kept []btree.Entry
	for _, e := range s.HostedDB.IndexEntries {
		if !drop[uint8(e.Key>>56)] {
			kept = append(kept, e)
		}
	}
	s.HostedDB.IndexEntries = append(kept, u.AddEntries...)
}
