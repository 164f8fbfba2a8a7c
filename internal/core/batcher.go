package core

import (
	"context"
	"errors"
	"time"

	"repro/internal/wire"
	"repro/internal/xpath"
)

// The owner's one send path. UpdateLeafValues callers serialize their
// read-modify-write PREPARATION under the exclusive lock (the client's
// occurrence tables and OPESS transformers mutate, so there is no way
// around that); every prepared update then joins the batch, and the
// caller that fills it (or a timer) flushes it as ONE
// wire.UpdateBatch. At the default size of one that is each caller,
// inline; EnableUpdateBatching raises the size so concurrent callers
// share the expensive tail — the backend round trip, the server's
// Merkle advance and generation bump, the WAL fsync.
//
// Consistency between the queue and readers: a prepared-but-unflushed
// update has already rewritten the client's value tables, while the
// server still serves the pre-batch state. A read that translates a
// value comparison through a rewritten OPESS band would therefore ask
// the server for ciphertexts it doesn't index yet and silently miss.
// The conflict barriers below force the flush out first in exactly
// those cases — reads over untouched bands keep running against the
// (serializable) pre-batch snapshot, which is what keeps batching a
// win under mixed reader/writer load.

// errUpdateConflict is the internal retry signal: a queued update
// conflicts with the read being attempted; flush, then try again.
// It never escapes the package's public entry points.
var errUpdateConflict = errors.New("core: queued update conflicts with this read")

// defaultUpdateMaxWait bounds how long the first queued update waits
// for company before flushing anyway.
const defaultUpdateMaxWait = 2 * time.Millisecond

// updateBatcher is the queue of prepared updates awaiting one group
// commit. All fields are guarded by the System's exclusive lock
// (reads under either lock half are safe: mutation requires the
// writer side). The zero value is a batcher of size one: every member
// fills it.
type updateBatcher struct {
	size    int
	maxWait time.Duration
	queue   []*queuedEdit
	timer   *time.Timer
}

// preparedUpdate is the output of the locked read-modify-write
// preparation: the wire frame, the chained verifier clone holding
// the commitment AFTER this member (nil without integrity), and how
// many leaf values it edits.
type preparedUpdate struct {
	upd   *wire.Update
	next  *wire.AuthVerifier
	edits int
}

// queuedEdit is one caller waiting for its batch to commit.
type queuedEdit struct {
	prep *preparedUpdate
	done chan batchOutcome // buffered(1)
}

// batchOutcome is what a queued caller learns when its batch settles.
type batchOutcome struct {
	err        error
	batchSize  int
	flushStart time.Time
	applyDur   time.Duration
}

// EnableUpdateBatching sets the owner-side group commit: concurrent
// updates coalesce into batches of up to size members, flushed when
// full or after maxWait (whichever first; maxWait <= 0 selects a small
// default). size <= 1 makes every update a batch of one, sent inline.
// Members queued under the previous settings are flushed first, so no
// caller is left waiting on a timer or a fill the new settings would
// never produce.
func (s *System) EnableUpdateBatching(size int, maxWait time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	// Any flush error was delivered to the waiting updaters.
	_ = s.flushBatchLocked(context.TODO())
	if maxWait <= 0 {
		maxWait = defaultUpdateMaxWait
	}
	s.updBatch.size, s.updBatch.maxWait = size, maxWait
}

// FlushUpdates forces any queued updates out as a group commit now.
// Reads that hit a conflict barrier call this; it is also the hook
// for a caller that wants a durability point ("everything I was told
// committed is on the server") without waiting out maxWait. The
// returned error is the batch's outcome (also delivered to each
// waiting caller); nil when the queue was empty.
func (s *System) FlushUpdates(ctx context.Context) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.flushBatchLocked(ctx)
}

// cmpKeys collects the tag keys of every value comparison in the
// path — the OPESS translation inputs a queued band rewrite would
// invalidate. unknown reports a comparison whose target tag could
// not be resolved (wildcard): the caller must assume it conflicts
// with everything.
func cmpKeys(p *xpath.Path) (keys []string, unknown bool) {
	cp := p.Clone()
	cp.RewriteCmps(func(e *xpath.CmpExpr) {
		key := lastNamedTag(e.Path)
		if key == "" {
			unknown = true
			return
		}
		keys = append(keys, key)
	})
	return keys, unknown
}

// queuedBandConflictLocked reports whether a read depending on the
// given tag keys must wait for the queue to flush: true when a queued
// member rewrote one of their OPESS bands (or the key set is unknown
// and anything at all is queued). Caller holds either half of s.mu.
func (s *System) queuedBandConflictLocked(keys []string, unknown bool) bool {
	b := &s.updBatch
	if len(b.queue) == 0 {
		return false
	}
	if unknown {
		return true
	}
	var pending map[uint8]bool
	for _, qe := range b.queue {
		for _, band := range qe.prep.upd.DropBands {
			if pending == nil {
				pending = map[uint8]bool{}
			}
			pending[band] = true
		}
	}
	if pending == nil {
		return false
	}
	for _, k := range keys {
		if band, ok := s.Client.IndexedBand(k); ok && pending[band] {
			return true
		}
	}
	return false
}

// queuedBlockConflictLocked reports whether any of the given block
// IDs was re-encrypted by a queued member: the server would ship the
// pre-batch ciphertext, so a writer reading its target out of such a
// block would lose the queued edit. Caller holds s.mu exclusively.
func (s *System) queuedBlockConflictLocked(blockIDs []int) bool {
	b := &s.updBatch
	if len(b.queue) == 0 {
		return false
	}
	touched := map[int]bool{}
	for _, qe := range b.queue {
		for _, bu := range qe.prep.upd.Blocks {
			touched[bu.ID] = true
		}
	}
	for _, id := range blockIDs {
		if touched[id] {
			return true
		}
	}
	return false
}

// totalEdits sums the member edit counts of a batch.
func totalEdits(batch []*queuedEdit) int {
	n := 0
	for _, qe := range batch {
		n += qe.prep.edits
	}
	return n
}

// flushBatchLocked sends the queued updates as one group commit and
// settles every waiting caller. The verifier chain was built at
// enqueue time (each member's clone extends its predecessor's), so
// only the TAIL member carries a NewRoot — the post-batch root the
// server cross-checks after applying the whole group. Caller holds
// s.mu exclusively. Uses ctx (the triggering caller's, or Background
// from the timer) for the backend round trip.
func (s *System) flushBatchLocked(ctx context.Context) error {
	b := &s.updBatch
	if len(b.queue) == 0 {
		return nil
	}
	// However this flush ends, the queue and sequence changed:
	// republish so readers pin the settled state (and the published
	// updSeq catches up with the live counter).
	defer s.publishLocked()
	if b.timer != nil {
		b.timer.Stop()
		b.timer = nil
	}
	batch := b.queue
	b.queue = nil
	// The request ID is assigned here (not left to the transport) so
	// that if the send fails ambiguously, the stashed batch and its
	// eventual resend carry the same ID and the server's dedup table
	// collapses them to one application.
	wb := &wire.UpdateBatch{RequestID: wire.NewRequestID(), Updates: make([]*wire.Update, len(batch))}
	for i, qe := range batch {
		wb.Updates[i] = qe.prep.upd
	}
	tail := batch[len(batch)-1].prep
	if tail.next != nil {
		root := tail.next.Root()
		tail.upd.NewRoot = root[:]
	}
	// Flush starts: bump the sequence BEFORE the send, so a reader
	// whose answer reflects this batch is guaranteed to observe the
	// moved counter afterwards (the server cannot apply before the
	// frame is sent). The batch applies atomically, so only the tail's
	// root can become visible; stage it so an answer the server
	// produces after applying — but before the ack returns — verifies
	// without waiting on the ack.
	s.updSeq.Add(1)
	staged := tail.next != nil && s.ring != nil
	if staged {
		s.ring.Stage(tail.next)
	}

	out := batchOutcome{batchSize: len(batch), flushStart: time.Now()}
	err := s.Server.ApplyUpdateBatch(ctx, wb)
	out.applyDur = time.Since(out.flushStart)
	switch {
	case err == nil:
		s.commitBatchLocked(wb, tail.next)
	case ambiguousUpdateFailure(s.Server, err):
		// The server may hold (durably, or about to recover to) the
		// whole batch (atomic apply, lost ack) or none of it, and the
		// client tables are already rewritten. Stash the exact frame
		// for Reconcile, whose resend under the same request ID is
		// correct in both worlds — a dedup ack if it landed, a fresh
		// idempotent apply if it didn't.
		s.pending = &pendingUpdate{batch: wb, nextVerifier: tail.next, edits: totalEdits(batch)}
		out.err = errors.Join(err, ErrUpdatePending)
	default:
		// Definite rejection: the server's state did not change, so
		// the staged root never existed server-side.
		if staged {
			s.ring.Unstage(tail.next)
		}
		out.err = err
	}
	for _, qe := range batch {
		qe.done <- out
	}
	return out.err
}
