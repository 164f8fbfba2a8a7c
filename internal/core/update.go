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

// ErrUpdatePending reports that an earlier update's outcome is in
// doubt — the backend stated that it may have been applied (its error
// wraps wire.ErrUpdateInDoubt). The client state is already rewritten,
// so further updates (and, with integrity enabled, verified queries)
// are refused until Reconcile resolves it.
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
// context bounding the update's read and its waits at the barriers of
// unsettled batches. It does not cancel the batch send, which carries
// other callers' updates too (see leadLocked). The read-modify-write runs
// under the System's exclusive lock: the client's occurrence tables
// and OPESS bands change together, and concurrent queries (which pin
// a published snapshot) see either the pre-update or the post-update
// translation state, never a mix. The send to the backend does not
// hold the lock (see batcher.go).
func (s *System) UpdateLeafValuesContext(ctx context.Context, q string, newValue string) (int, error) {
	n, _, err := s.UpdateLeafValuesTimed(ctx, q, newValue)
	return n, err
}

// UpdateLeafValuesTimed is UpdateLeafValuesContext with the update
// pipeline's timing breakdown. The prepared update joins the queue
// under the lock; if no batch is in flight its caller leads and sends
// the queue, otherwise it waits off the lock for the batch it joined.
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
// means the attempt hit a barrier of an unsettled batch and waited for
// it to settle; the whole read-modify-write must redo against the
// settled state.
func (s *System) updateOnce(ctx context.Context, path *xpath.Path, q, newValue string) (int, Timings, bool, error) {
	var tm Timings
	s.mu.Lock()
	if s.pending != nil {
		s.mu.Unlock()
		return 0, tm, false, ErrUpdatePending
	}
	b := &s.updBatch
	wait := func() (int, Timings, bool, error) {
		ch := b.settledCh()
		s.mu.Unlock()
		if err := awaitSettle(ctx, ch); err != nil {
			return 0, tm, false, err
		}
		return 0, tm, true, nil
	}

	// Writer pre-read barrier: if an unsettled member rewrote an OPESS
	// band this update's own value comparisons translate through, the
	// read below would be built from tables the server may not have
	// caught up to yet. Under the lock, the published snapshot's
	// fingerprint is the live one (nil: nothing was ever queued).
	keys, unknown := cmpKeys(path)
	if sn := s.snap.Load(); sn != nil && sn.bandConflict(s.Client, keys, unknown) {
		return wait()
	}

	prep, conflict, err := s.prepareUpdateLocked(ctx, path, q, newValue)
	if conflict {
		// Writer post-read barrier: the answer's blocks intersect an
		// unsettled member's re-encryptions — reading the pre-batch
		// ciphertext would lose that edit. Wait and redo.
		return wait()
	}
	if err != nil || prep == nil {
		s.mu.Unlock()
		return 0, tm, false, err
	}

	// Every update commits as a member of a batch. With no batch in
	// flight this caller leads and sends the queue now; otherwise the
	// enqueue is published so readers pinned from here on see this
	// member's bands in the conflict fingerprint (and the rewritten
	// transformer table that goes with them).
	qe := &queuedEdit{prep: prep, done: make(chan batchOutcome, 1)}
	b.members = append(b.members, qe)
	enqueuedAt := time.Now()
	if len(b.members) == 1 {
		s.leadLocked(ctx)
	} else {
		s.publishLocked()
	}
	s.mu.Unlock()

	out := <-qe.done
	if out.lead {
		// The batch ahead settled and this member is the oldest behind
		// it: send everything queued since.
		s.mu.Lock()
		s.leadLocked(ctx)
		s.mu.Unlock()
		out = <-qe.done
	}
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
// collide with an unsettled member and the caller must wait and redo.
// A prepare that fails after editing the client tables restores them.
// Caller holds s.mu exclusively.
func (s *System) prepareUpdateLocked(ctx context.Context, path *xpath.Path, q, newValue string) (_ *preparedUpdate, conflict bool, err error) {
	qs, err := s.Client.Translate(path)
	if err != nil {
		return nil, false, err
	}
	// The read half of the read-modify-write travels the query path:
	// an update must not be computed from an answer the server could
	// have forged, whether or not the transport verifies. The
	// exclusive lock keeps the ring from advancing, so the check is at
	// its current commitment (or the in-flight batch's staged one).
	ans, blocks, err := s.execute(ctx, s.Server, s.ring, s.ring.pinSeq(), qs, &Timings{})
	if err != nil {
		return nil, false, err
	}
	if s.blockConflictLocked(ans.BlockIDs) {
		return nil, true, nil
	}
	res, err := s.Client.PostProcessFull(path, ans, blocks)
	if err != nil {
		return nil, false, err
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

	keys := make([]string, 0, len(touchedAttrs))
	for key := range touchedAttrs {
		keys = append(keys, key)
	}
	mark := s.Client.MarkTables(keys)
	defer func() {
		if err != nil {
			s.Client.RestoreTables(mark)
		}
	}()
	for _, e := range edits {
		if err := s.Client.ApplyValueEdit(e.tagKey, e.oldValue, newValue, e.blockID); err != nil {
			return nil, false, err
		}
	}

	upd := &wire.Update{}
	for _, key := range keys {
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
	// a clone chained from its predecessor: the last queued member,
	// else the in-flight batch's tail, else the ring's current
	// verifier. The clone only advances the ring once the server acks;
	// a failed update leaves the commitment at the pre-update state.
	var base *wire.AuthVerifier
	if s.ring != nil {
		base = s.ring.Current()
	}
	if m := s.updBatch.members; len(m) > 0 {
		base = m[len(m)-1].prep.next
	}
	var nextVerifier *wire.AuthVerifier
	if base != nil {
		nextVerifier = base.Clone()
		if err := nextVerifier.ApplyUpdate(upd); err != nil {
			return nil, false, err
		}
	}
	return &preparedUpdate{upd: upd, next: nextVerifier, edits: len(edits), mark: mark}, false, nil
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
		// retired tail.
		s.ring.Advance(nextVerifier)
	}
	for _, u := range b.Updates {
		s.mirrorUpdate(u)
	}
}

// Reconcile resolves a pending in-doubt update by resending the
// stashed batch under its original request ID: the server either
// acknowledges from its dedup table (the batch had landed; the ack was
// lost) or applies it fresh (idempotently). On success the client
// commitment and mirror advance and the System serves verified queries
// again. Only a resend the server refused after its dedup lookup
// (wire.ErrUpdateRejected) unwinds the update; on any other failure —
// another in-doubt send, an ended context, an open breaker, a refusal
// before the lookup — it stays pending, since an earlier send may have
// landed, and Reconcile can be called again. It reports the number of
// values the reconciled update had changed. With nothing pending it
// returns (0, nil).
func (s *System) Reconcile(ctx context.Context) (int, error) {
	s.lockIdle()
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
		if !errors.Is(err, wire.ErrUpdateRejected) {
			return 0, errors.Join(err, ErrUpdatePending)
		}
		// The server looked the batch up and refused it: it does not
		// hold the update. The pending state is unwound — commitment,
		// mirror and client tables stay at the pre-update state — and
		// the caller decides whether to re-issue the whole edit.
		if p.nextVerifier != nil && s.ring != nil {
			s.ring.Unstage(p.nextVerifier)
		}
		s.restoreTables(p.members)
		s.pending = nil
		return 0, err
	}
	s.commitBatchLocked(p.batch, p.nextVerifier)
	s.pending = nil
	edits := 0
	for _, qe := range p.members {
		edits += qe.prep.edits
	}
	return edits, nil
}

// UpdatePending reports whether an in-doubt update awaits Reconcile.
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
