package wire

import (
	"bytes"
	"fmt"
)

// Snapshot frames: the durable-storage split (ROADMAP item 3) stores
// the hosted database's big immutable metadata (residue, DSI tables,
// block table, index entries) in one snapshot file and the mutable
// ciphertext blocks in a per-block store, so a checkpoint rewrites
// only what changed. A snapshot is the SXDS1 magic, the database
// generation it captures, the Merkle root of the full state at that
// generation (the recovery-time trust anchor), and an embedded SXDB1
// frame whose block ciphertexts are elided (length-zero, count
// preserved) — block bytes live in the block store.
var snapshotMagic = []byte("SXDS1")

// MarshalSnapshot serializes h's metadata (blocks elided) together
// with the generation and Merkle root of the state it captures. The
// root may be nil when the host keeps no auth state; recovery then
// anchors on the WAL records' own roots.
func MarshalSnapshot(h *HostedDB, gen uint64, root []byte) ([]byte, error) {
	meta := *h
	meta.Blocks = make([][]byte, len(h.Blocks))
	inner, err := MarshalDB(&meta)
	if err != nil {
		return nil, err
	}
	w := getWriter()
	w.buf.Write(snapshotMagic)
	w.u64(gen)
	w.bytes(root)
	w.bytes(inner)
	return w.finish(), nil
}

// UnmarshalSnapshot reverses MarshalSnapshot. The returned database
// has its Blocks slice sized but empty; the caller fills it from the
// block store.
func UnmarshalSnapshot(data []byte) (h *HostedDB, gen uint64, root []byte, err error) {
	r := &reader{r: bytes.NewReader(data)}
	if err := expectMagic(r.r, snapshotMagic); err != nil {
		return nil, 0, nil, err
	}
	if gen, err = r.u64(); err != nil {
		return nil, 0, nil, fmt.Errorf("wire: snapshot generation: %w", err)
	}
	if root, err = r.bytesN(); err != nil {
		return nil, 0, nil, fmt.Errorf("wire: snapshot root: %w", err)
	}
	inner, err := r.bytesN()
	if err != nil {
		return nil, 0, nil, fmt.Errorf("wire: snapshot body: %w", err)
	}
	if r.r.Len() != 0 {
		return nil, 0, nil, fmt.Errorf("wire: snapshot: %d trailing bytes", r.r.Len())
	}
	if h, err = UnmarshalDB(inner); err != nil {
		return nil, 0, nil, err
	}
	if len(root) == 0 {
		root = nil
	}
	return h, gen, root, nil
}
