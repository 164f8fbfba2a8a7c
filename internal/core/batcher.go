package core

import (
	"context"
	"errors"
	"time"

	"repro/internal/client"
	"repro/internal/wire"
	"repro/internal/xpath"
)

// The owner's one send path: leader-elected group commit.
// UpdateLeafValues callers prepare their read-modify-write under the
// exclusive lock (the client's occurrence tables and OPESS
// transformers mutate), and every prepared update joins the queue. If
// no batch is in flight, the caller that queued leads: under the lock
// it takes the queue as ONE wire.UpdateBatch, bumps updSeq, stages the
// tail root and publishes; it sends with the lock released and retakes
// it to commit or unwind. Updates prepared during the send queue
// behind it, and the oldest of them leads the next batch, so no caller
// sends more than one batch and batch size follows load: the backend
// round trip, the server's Merkle advance and the WAL fsync are shared
// by whoever arrived while the previous batch ran.
//
// Consistency: an unsettled member (in flight or queued) has already
// rewritten the client's value tables, while the server may still
// serve the pre-batch state. A read that translates a value comparison
// through a rewritten OPESS band would ask the server for ciphertexts
// it doesn't index yet and silently miss, so the barriers make such a
// read wait until the batch settles; reads over untouched bands run
// against the server's state on either side of the batch.

// errUpdateConflict is the internal retry signal: an unsettled update
// conflicts with the read being attempted; wait for its batch to
// settle, then try again. It never escapes the package's public entry
// points.
var errUpdateConflict = errors.New("core: unsettled update conflicts with this read")

// updateBatcher is the group commit's state, guarded by the System's
// exclusive lock (reads under either half are safe). The zero value is
// idle.
type updateBatcher struct {
	// members are the unsettled updates in prepare order: the batch
	// in flight, then the queue behind it. While it is non-empty
	// exactly one caller leads (including across the hand-off), so a
	// caller whose append makes it the only member leads next.
	members []*queuedEdit
	// settled is closed and replaced whenever a batch settles;
	// barriers wait on it.
	settled chan struct{}
}

// settledCh returns the channel the next settle closes.
func (b *updateBatcher) settledCh() chan struct{} {
	if b.settled == nil {
		b.settled = make(chan struct{})
	}
	return b.settled
}

// preparedUpdate is the output of the locked read-modify-write
// preparation: the wire frame, the chained verifier clone holding
// the commitment AFTER this member (nil without integrity), how
// many leaf values it edits, and the client tables from before its
// edits.
type preparedUpdate struct {
	upd   *wire.Update
	next  *wire.AuthVerifier
	edits int
	mark  *client.TableMark
}

// queuedEdit is one caller waiting for its batch to commit.
type queuedEdit struct {
	prep *preparedUpdate
	done chan batchOutcome // buffered(1)
}

// batchOutcome is what a queued caller learns when its batch settles,
// or, with lead set, that the batch ahead of it settled and it leads
// the next one.
type batchOutcome struct {
	lead       bool
	err        error
	batchSize  int
	flushStart time.Time
	applyDur   time.Duration
}

// awaitSettle blocks until ch (a settledCh captured under the lock)
// closes, or ctx ends.
func awaitSettle(ctx context.Context, ch <-chan struct{}) error {
	select {
	case <-ch:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// lockIdle takes the exclusive lock once no batch is in flight or
// queued: configuration changes must not swap the backend or the
// commitment under members chained from the old ones.
func (s *System) lockIdle() {
	s.mu.Lock()
	for len(s.updBatch.members) > 0 {
		ch := s.updBatch.settledCh()
		s.mu.Unlock()
		<-ch
		s.mu.Lock()
	}
}

// cmpKeys collects the tag keys of every value comparison in the
// path — the OPESS translation inputs an unsettled band rewrite would
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

// blockConflictLocked reports whether any of the given block IDs was
// re-encrypted by an unsettled member: the server may ship the
// pre-batch ciphertext, so a writer reading its target out of such a
// block would lose the unsettled edit. Caller holds s.mu exclusively.
func (s *System) blockConflictLocked(blockIDs []int) bool {
	touched := map[int]bool{}
	for _, qe := range s.updBatch.members {
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

// restoreTables undoes the members' client table rewrites, newest
// first.
func (s *System) restoreTables(members []*queuedEdit) {
	for i := len(members) - 1; i >= 0; i-- {
		s.Client.RestoreTables(members[i].prep.mark)
	}
}

// leadLocked sends the queue as one group commit and settles every
// member. The verifier chain was built at enqueue time (each member's
// clone extends its predecessor's), so only the TAIL member carries a
// NewRoot — the post-batch root the server cross-checks after applying
// the whole group. Caller holds s.mu exclusively and leads (no other
// batch is in flight, the queue is non-empty); the lock is released
// for the send and held again on return.
//
// The batch belongs to every member, so no one caller's context may
// decide it: ctx is the leader's, which may have expired while it
// queued, and is cancelled mid-send if its caller gives up. The send
// keeps ctx's values but not its cancellation, and is bounded by the
// backend's own timeouts (remote.Client's per-attempt timeout and
// retry budget).
func (s *System) leadLocked(ctx context.Context) {
	b := &s.updBatch
	batch := b.members
	// The request ID is assigned here (not left to the transport) so
	// that if the send's outcome is in doubt, the stashed batch and its
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
	// without waiting on the ack. Publishing here, under the lock,
	// means a reader holding the read lock sees the bump and the
	// in-flight fingerprint together, so it cannot skew.
	s.updSeq.Add(1)
	staged := tail.next != nil && s.ring != nil
	if staged {
		s.ring.Stage(tail.next)
	}
	s.publishLocked()

	backend := s.Server
	out := batchOutcome{batchSize: len(batch), flushStart: time.Now()}
	s.mu.Unlock()
	err := backend.ApplyUpdateBatch(context.WithoutCancel(ctx), wb)
	s.mu.Lock()
	out.applyDur = time.Since(out.flushStart)

	// A failed batch takes the members queued behind it down too:
	// they chained from a state the server never reached.
	settled := batch
	if err != nil {
		settled = b.members
	}
	b.members = b.members[len(settled):]
	switch {
	case err == nil:
		s.commitBatchLocked(wb, tail.next)
	case errors.Is(err, wire.ErrUpdateInDoubt):
		// The server may hold (durably, or about to recover to) the
		// whole batch (atomic apply, lost ack) or none of it, and the
		// client tables are already rewritten. Stash the exact frame
		// for Reconcile, whose resend under the same request ID is
		// correct in both worlds — a dedup ack if it landed, a fresh
		// idempotent apply if it didn't. Only the members behind it
		// are undone.
		s.pending = &pendingUpdate{batch: wb, nextVerifier: tail.next, members: batch}
		s.restoreTables(settled[len(batch):])
		out.err = errors.Join(err, ErrUpdatePending)
	default:
		// Definite rejection: this was the batch's only send and it
		// applied nothing. The server's state did not change: the
		// staged root never existed server-side, and the client
		// tables go back to the pre-batch state.
		if staged {
			s.ring.Unstage(tail.next)
		}
		s.restoreTables(settled)
		out.err = err
	}
	close(b.settledCh())
	b.settled = nil
	s.publishLocked()
	for _, qe := range settled {
		qe.done <- out
	}
	if len(b.members) > 0 {
		b.members[0].done <- batchOutcome{lead: true}
	}
}
