package wire

import (
	"bytes"
	"crypto/sha256"
	"fmt"
)

// Snapshot frames: the durable image of one hosted database, the
// whole of its <name>.sxdb file. A snapshot is the SXDS2 magic, the
// generation it captures (fixed u64), the Merkle root of the state at
// that generation (the recovery-time trust anchor), the database's
// SXDB1 frame with its blocks inline — the same bytes MarshalDB gives
// the upload — and a SHA-256 over every byte before it. The SXDB1
// frame is not length-prefixed: it runs up to the checksum.
var snapshotMagic = []byte("SXDS2")

// MarshalSnapshot serializes h together with the generation and
// Merkle root of the state it captures. The root may be nil when the
// host keeps no auth state; recovery then anchors on the WAL records'
// own roots.
func MarshalSnapshot(h *HostedDB, gen uint64, root []byte) ([]byte, error) {
	w := getWriter()
	w.buf.Write(snapshotMagic)
	w.u64(gen)
	w.bytes(root)
	w.db(h)
	sum := sha256.Sum256(w.buf.Bytes())
	w.buf.Write(sum[:])
	return w.finish(), nil
}

// UnmarshalSnapshot reverses MarshalSnapshot. A frame with another
// magic (a retired SXDS1 file among them) fails on it; damage anywhere
// after the magic fails the checksum.
func UnmarshalSnapshot(data []byte) (h *HostedDB, gen uint64, root []byte, err error) {
	r := &reader{r: bytes.NewReader(data)}
	if err := expectMagic(r.r, snapshotMagic); err != nil {
		return nil, 0, nil, err
	}
	end := len(data) - sha256.Size
	if end < len(snapshotMagic) {
		return nil, 0, nil, fmt.Errorf("wire: snapshot checksum missing (%d bytes)", len(data))
	}
	if sum := sha256.Sum256(data[:end]); !bytes.Equal(sum[:], data[end:]) {
		return nil, 0, nil, fmt.Errorf("wire: snapshot checksum mismatch (stored %x, computed %x)", data[end:end+8], sum[:8])
	}
	if gen, err = r.u64(); err != nil {
		return nil, 0, nil, fmt.Errorf("wire: snapshot generation: %w", err)
	}
	if root, err = r.bytesN(); err != nil {
		return nil, 0, nil, fmt.Errorf("wire: snapshot root: %w", err)
	}
	start := len(data) - r.r.Len()
	if start > end {
		return nil, 0, nil, fmt.Errorf("wire: snapshot header overruns its checksum")
	}
	if h, err = UnmarshalDB(data[start:end]); err != nil {
		return nil, 0, nil, err
	}
	if len(root) == 0 {
		root = nil
	}
	return h, gen, root, nil
}
