package wire

import (
	"bytes"
	"fmt"
)

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
