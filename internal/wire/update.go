package wire

import (
	"fmt"

	"repro/internal/btree"
)

// Update is an owner-issued mutation to a hosted database — the
// paper lists update support as future work (§8); this is the
// extension this library ships. A leaf-value change re-encrypts the
// affected blocks (fresh decoys, fresh nonces) and re-issues the
// value-index entries of every touched attribute wholesale: OPESS
// parameters depend on the attribute's exact frequency distribution,
// so per-entry patching would leak which value changed, while a
// whole-band replacement looks identical for every possible update.
// Structure-preserving updates keep the DSI tables untouched.
//
// An Update travels, commits and replays only as a member of an
// UpdateBatch; a lone update is a batch of one.
type Update struct {
	// Blocks replaces the ciphertext of existing blocks, by ID.
	Blocks []BlockUpdate
	// DropBands removes every value-index entry whose key lies in
	// the given attribute bands (the top byte of the OPESS code).
	DropBands []uint8
	// AddEntries are the replacement value-index entries.
	AddEntries []btree.Entry
	// NewRoot, when non-empty, is the client's precomputed Merkle root
	// (32 bytes) of the state after this member. A server holding auth
	// state cross-checks its own recomputed root against the batch
	// tail's and rejects (discarding the whole batch) on mismatch, so a
	// corrupted update can never become the committed state.
	NewRoot []byte
}

// BlockUpdate is one block replacement.
type BlockUpdate struct {
	ID         int
	Ciphertext []byte
}

// ReplacedBands folds the band replacements of a batch's members, in
// order, into the final run of every band the batch drops: a member's
// dropped band becomes exactly its added entries in that band, so a
// later member's drop supersedes an earlier one's. Each run is fresh
// (it never aliases an update's entries) and in canonical order. A
// member must be band-closed — every added entry's band among its
// dropped bands, as owner-issued updates are by construction —
// otherwise nobody could know that band's final content.
func ReplacedBands(us []*Update) (map[uint8][]btree.Entry, error) {
	out := map[uint8][]btree.Entry{}
	for _, u := range us {
		var runs [btree.NumBands][]btree.Entry
		var dropped [btree.NumBands]bool
		var sizes [btree.NumBands]int
		for _, b := range u.DropBands {
			dropped[b] = true
		}
		for _, e := range u.AddEntries {
			b := btree.Band(e.Key)
			if !dropped[b] {
				return nil, fmt.Errorf("wire: update adds an entry in band %d, which it does not replace", b)
			}
			sizes[b]++
		}
		for _, b := range u.DropBands {
			runs[b] = make([]btree.Entry, 0, sizes[b])
		}
		for _, e := range u.AddEntries {
			b := btree.Band(e.Key)
			runs[b] = append(runs[b], e)
		}
		for _, b := range u.DropBands {
			out[b] = runs[b]
		}
	}
	for _, run := range out {
		btree.SortBand(run)
	}
	return out, nil
}

// Smallest encodings of the repeated elements of a member, used to
// bound a claimed count by the bytes actually left in the frame.
const (
	minBlockUpdateBytes = 2 // uvarint id + uvarint length
	minIndexEntryBytes  = 9 // fixed u64 key + uvarint block id
	minUpdateBytes      = 4 // three empty counts + empty root
)

// writeUpdate appends the one member encoding.
func writeUpdate(w *writer, u *Update) {
	w.uvarint(uint64(len(u.Blocks)))
	for _, b := range u.Blocks {
		w.uvarint(uint64(b.ID))
		w.bytes(b.Ciphertext)
	}
	w.bytes(u.DropBands)
	w.uvarint(uint64(len(u.AddEntries)))
	for _, e := range u.AddEntries {
		w.u64(e.Key)
		w.uvarint(uint64(e.BlockID))
	}
	w.bytes(u.NewRoot)
}

// readUpdate reverses writeUpdate. /update bodies and WAL payloads are
// outside input: every count is checked against the bytes left before
// anything is allocated for it.
func readUpdate(r *reader) (*Update, error) {
	u := &Update{}
	nb, err := r.countOf("block update", minBlockUpdateBytes)
	if err != nil {
		return nil, err
	}
	for i := 0; i < nb; i++ {
		id, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		ct, err := r.bytesN()
		if err != nil {
			return nil, err
		}
		u.Blocks = append(u.Blocks, BlockUpdate{ID: int(id), Ciphertext: ct})
	}
	if u.DropBands, err = r.bytesN(); err != nil {
		return nil, fmt.Errorf("wire: drop bands: %w", err)
	}
	ne, err := r.countOf("add entry", minIndexEntryBytes)
	if err != nil {
		return nil, err
	}
	u.AddEntries = make([]btree.Entry, ne)
	for i := range u.AddEntries {
		if u.AddEntries[i].Key, err = r.u64(); err != nil {
			return nil, err
		}
		bid, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		u.AddEntries[i].BlockID = int(bid)
	}
	if u.NewRoot, err = r.bytesN(); err != nil {
		return nil, fmt.Errorf("wire: new root: %w", err)
	}
	return u, nil
}
