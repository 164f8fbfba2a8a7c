package wire

import (
	"bytes"
	"errors"
	"fmt"
)

// ErrUpdateInDoubt marks a failed ApplyUpdateBatch whose batch may
// nevertheless have been applied: some attempt may have reached the
// server and no answer said what it did. A backend states each
// outcome: nil is committed; an error wrapping ErrUpdateInDoubt may
// have been applied; an error wrapping ErrUpdateRejected was refused
// by the server after it looked the batch up; any other error means
// this call applied nothing (nothing was sent, or the server turned
// the request away before looking). The owner keeps an in-doubt batch
// and resends it under its request ID, which the server's dedup table
// makes exact-once either way.
var ErrUpdateInDoubt = errors.New("wire: update may have been applied")

// ErrUpdateRejected marks a failed ApplyUpdateBatch that the server
// refused after its dedup lookup: the batch was not among those it had
// committed, and applying it failed. It is the only failure that says
// the server holds none of the batch, whatever earlier sends of it
// did — so the only one on which the owner drops a batch it holds in
// doubt. A backend never wraps both sentinels in one error.
var ErrUpdateRejected = errors.New("wire: update rejected by the server")

// UpdateBatch is the unit of update at every layer: one or more owner
// updates applied as one atomic step. The server commits either every
// member or none, bumps its generation once, advances its Merkle
// state with a single multi-leaf delta, and makes the whole group
// durable under one WAL record (so one fsync covers every member).
//
// Member updates are chained: each was prepared against the state the
// previous members produce, so only the LAST member's NewRoot is the
// commitment to the post-batch state. The server checks exactly that
// root; a corrupted member anywhere in the chain makes the final root
// diverge, which rejects (and discards) the whole batch.
type UpdateBatch struct {
	// RequestID identifies the batch for at-most-once application:
	// the server remembers recently committed IDs and acknowledges a
	// resend (a lost response, a client-side timeout, core.Reconcile
	// after an ambiguous failure) without re-applying it. Zero means
	// "no ID"; the remote client assigns a random one before the first
	// attempt. The ID is random and carries no information about the
	// batch's content.
	RequestID uint64
	// Updates are the members, in application order; never empty.
	Updates []*Update
}

// batchMagic frames the one update frame /update accepts and the WAL
// stores: magic, request ID, member count, then each member in the
// encoding of writeUpdate.
var batchMagic = []byte("SXB2")

// MarshalUpdateBatch serializes a batch.
func MarshalUpdateBatch(b *UpdateBatch) ([]byte, error) {
	if len(b.Updates) == 0 {
		return nil, fmt.Errorf("wire: empty update batch")
	}
	w := getWriter()
	w.buf.Write(batchMagic)
	w.u64(b.RequestID)
	w.uvarint(uint64(len(b.Updates)))
	for _, u := range b.Updates {
		writeUpdate(w, u)
	}
	return w.finish(), nil
}

// UnmarshalUpdateBatch reverses MarshalUpdateBatch.
func UnmarshalUpdateBatch(data []byte) (*UpdateBatch, error) {
	r := &reader{r: bytes.NewReader(data)}
	if err := expectMagic(r.r, batchMagic); err != nil {
		return nil, err
	}
	b := &UpdateBatch{}
	id, err := r.u64()
	if err != nil {
		return nil, fmt.Errorf("wire: batch request id: %w", err)
	}
	b.RequestID = id
	n, err := r.countOf("batch member", minUpdateBytes)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, fmt.Errorf("wire: empty update batch")
	}
	for i := 0; i < n; i++ {
		u, err := readUpdate(r)
		if err != nil {
			return nil, fmt.Errorf("wire: batch member %d: %w", i, err)
		}
		b.Updates = append(b.Updates, u)
	}
	if r.r.Len() != 0 {
		return nil, fmt.Errorf("wire: %d trailing bytes", r.r.Len())
	}
	return b, nil
}
