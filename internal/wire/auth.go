package wire

// Answer-integrity layer: the canonical Merkle leaf schema over a
// hosted database, the server-side prover state, and the client-side
// verifier (see internal/authtree for the tree itself and the trust
// argument). Both roles build the identical tree from server-visible
// data only — blocks, residue fragments, value-index buckets — so
// the commitment leaks nothing beyond what the upload already
// revealed.
//
// Canonical leaf order (the layout both sides must agree on):
//
//	[0, nBlocks)                 block leaves, by block ID
//	[nBlocks, nBlocks+nFrags)    fragment leaves, by interval (Lo, Hi)
//	[.., ..+256)                 value-index band buckets, band 0..255
//	[last]                       structure leaf (residue + DSI table)
//
// A fragment leaf exists for every residue element/attribute node
// and commits the exact serialized bytes the server ships when that
// node anchors an answer. Band buckets commit each OPESS band's full
// entry run in canonical order — the value index's own runs
// (btree.Index), which the prover reads rather than copies — and a
// band is also the unit updates replace, so an owner holding the
// tree's digests, and none of the hosted data, advances the root from
// the update message alone, rehashing only the changed leaves' root
// paths.

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"repro/internal/authtree"
	"repro/internal/btree"
	"repro/internal/dsi"
	"repro/internal/xmltree"
)

// fragBufPool recycles the scratch buffer fragments serialize into;
// the fragment bytes themselves are copied out exact-size, since the
// answer retains them indefinitely (pooled-buffer aliasing rule: a
// pooled buffer's bytes never outlive the function that got it).
var fragBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// fragBufCap bounds the capacity a pooled fragment buffer may retain;
// one oversized fragment must not pin megabytes in the pool.
const fragBufCap = 1 << 20

// SerializeFragment produces the canonical answer bytes for a
// residue node: the serialized subtree, with an attribute node
// wrapped so it can stand alone. The server uses it to assemble
// answers and both sides use it to build fragment leaves, so the
// committed bytes are exactly the shipped bytes. The subtree is
// serialized in place — no clone, no Document wrapper — which the
// assemble stage of every cold query leans on.
func SerializeFragment(n *xmltree.Node) ([]byte, error) {
	m := n
	if n.Kind == xmltree.Attribute {
		m = xmltree.NewElement(AttrWrapTag)
		m.AppendChild(xmltree.NewAttribute("name", n.Tag))
		m.AppendChild(xmltree.NewText(n.Value))
	}
	buf := fragBufPool.Get().(*bytes.Buffer)
	buf.Reset()
	err := xmltree.SerializeSubtree(buf, m)
	var out []byte
	if err == nil {
		out = append(make([]byte, 0, buf.Len()), buf.Bytes()...)
	}
	if buf.Cap() <= fragBufCap {
		fragBufPool.Put(buf)
	}
	if err != nil {
		return nil, fmt.Errorf("wire: serialize fragment: %w", err)
	}
	return out, nil
}

// Leaf data constructors. The one-byte domain tag keeps a block leaf
// from ever colliding with a fragment or bucket leaf.

func blockLeafData(id int, ct []byte) []byte {
	out := make([]byte, 0, 9+len(ct))
	out = append(out, 'B')
	out = appendU64(out, uint64(id))
	return append(out, ct...)
}

func fragLeafData(iv dsi.Interval, frag []byte) []byte {
	out := make([]byte, 0, 17+len(frag))
	out = append(out, 'F')
	out = appendU64(out, math.Float64bits(iv.Lo))
	out = appendU64(out, math.Float64bits(iv.Hi))
	return append(out, frag...)
}

func bandLeafData(band uint8, entries []btree.Entry) []byte {
	out := make([]byte, 0, 2+16*len(entries))
	out = append(out, 'V', band)
	for _, e := range entries {
		out = appendU64(out, e.Key)
		out = appendU64(out, uint64(e.BlockID))
	}
	return out
}

func structLeafData(h *HostedDB) []byte {
	w := getWriter()
	w.buf.WriteByte('S')
	w.string(h.Residue.String())
	labels := make([]string, 0, len(h.Table.ByTag))
	for l := range h.Table.ByTag {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	w.uvarint(uint64(len(labels)))
	for _, l := range labels {
		w.string(l)
		w.uvarint(uint64(len(h.Table.ByTag[l])))
		for _, iv := range h.Table.ByTag[l] {
			w.f64(iv.Lo)
			w.f64(iv.Hi)
		}
	}
	w.uvarint(uint64(len(h.BlockReps)))
	for _, iv := range h.BlockReps {
		w.f64(iv.Lo)
		w.f64(iv.Hi)
	}
	return w.finish()
}

func appendU64(b []byte, v uint64) []byte {
	return append(b, byte(v>>56), byte(v>>48), byte(v>>40), byte(v>>32),
		byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

// leafLayout is the canonical leaf order's shape, which the prover and
// the verifier share: the block and fragment counts fix every other
// leaf's index.
type leafLayout struct {
	nBlocks int
	nFrags  int
}

func (l leafLayout) bandLeafIndex(b uint8) int { return l.nBlocks + l.nFrags + int(b) }
func (l leafLayout) structLeafIndex() int      { return l.nBlocks + l.nFrags + btree.NumBands }

// changedLeaves returns the leaves a batch changes: a fresh digest for
// each replaced block, and for each dropped band one over its final
// run, band(b). The blocks must stay inside the committed range.
func (l leafLayout) changedLeaves(us []*Update, band func(uint8) []btree.Entry) ([]authtree.LeafItem, error) {
	var items []authtree.LeafItem
	var dropped [btree.NumBands]bool
	for _, u := range us {
		for _, b := range u.Blocks {
			if b.ID < 0 || b.ID >= l.nBlocks {
				return nil, fmt.Errorf("block %d outside committed range", b.ID)
			}
			items = append(items, authtree.LeafItem{Index: b.ID, Digest: authtree.LeafHash(blockLeafData(b.ID, b.Ciphertext))})
		}
		for _, b := range u.DropBands {
			dropped[b] = true
		}
	}
	for b, ok := range dropped {
		if ok {
			items = append(items, authtree.LeafItem{Index: l.bandLeafIndex(uint8(b)), Digest: authtree.LeafHash(bandLeafData(uint8(b), band(uint8(b))))})
		}
	}
	return items, nil
}

// AuthState is the server-side prover: the full Merkle tree over a
// hosted database plus the lookup structures proofs need. It holds
// no secrets — everything in it derives from the upload. The value
// index it proves from is the caller's, shared and immutable.
type AuthState struct {
	leafLayout
	tree    *authtree.Tree
	fragIdx map[dsi.Interval]int // interval -> absolute leaf index
	index   *btree.Index
}

// BuildAuthState computes the canonical tree for a hosted database.
func BuildAuthState(db *HostedDB) (*AuthState, error) {
	return NewAuthState(db, btree.NewIndex(db.IndexEntries))
}

// NewAuthState is BuildAuthState over a value index the caller already
// holds (the server's snapshot index): the band leaves hash idx's
// runs, proofs read them, and db.IndexEntries is ignored. Every leaf
// commits bytes the wire format carries unchanged, so a client building
// from its pre-upload instance and a server building from the
// unmarshaled upload arrive at the identical root.
func NewAuthState(db *HostedDB, idx *btree.Index) (*AuthState, error) {
	type fragLeaf struct {
		iv   dsi.Interval
		data []byte
	}
	frags := make([]fragLeaf, 0, len(db.ResidueIntervals))
	for n, iv := range db.ResidueIntervals {
		fb, err := SerializeFragment(n)
		if err != nil {
			return nil, err
		}
		frags = append(frags, fragLeaf{iv: iv, data: fragLeafData(iv, fb)})
	}
	sort.Slice(frags, func(i, j int) bool {
		if frags[i].iv.Lo != frags[j].iv.Lo {
			return frags[i].iv.Lo < frags[j].iv.Lo
		}
		return frags[i].iv.Hi < frags[j].iv.Hi
	})
	for i := 1; i < len(frags); i++ {
		if frags[i].iv == frags[i-1].iv {
			return nil, fmt.Errorf("wire: auth state: duplicate residue interval %v", frags[i].iv)
		}
	}

	st := &AuthState{
		leafLayout: leafLayout{nBlocks: len(db.Blocks), nFrags: len(frags)},
		fragIdx:    make(map[dsi.Interval]int, len(frags)),
		index:      idx,
	}
	leaves := make([]authtree.Digest, 0, st.nBlocks+st.nFrags+btree.NumBands+1)
	for id, ct := range db.Blocks {
		leaves = append(leaves, authtree.LeafHash(blockLeafData(id, ct)))
	}
	for i, f := range frags {
		st.fragIdx[f.iv] = st.nBlocks + i
		leaves = append(leaves, authtree.LeafHash(f.data))
	}
	for b := 0; b < btree.NumBands; b++ {
		leaves = append(leaves, authtree.LeafHash(bandLeafData(uint8(b), idx.Band(uint8(b)))))
	}
	leaves = append(leaves, authtree.LeafHash(structLeafData(db)))
	st.tree = authtree.New(leaves)
	return st, nil
}

// Root returns the committed root digest.
func (st *AuthState) Root() authtree.Digest { return st.tree.Root() }

// NumLeaves reports the tree width (part of the verifier's trusted
// state).
func (st *AuthState) NumLeaves() int { return st.tree.NumLeaves() }

// Verifier returns the owner-side state: the layout and the tree,
// which is immutable and so shared, not copied (enough to advance the
// root after an update without holding any hosted data).
func (st *AuthState) Verifier() *AuthVerifier {
	return &AuthVerifier{leafLayout: st.leafLayout, tree: st.tree}
}

// ProveAnswer builds the verification object for a query answer: the
// (leaf index, interval) of every shipped fragment plus the Merkle
// multiproof covering those fragment leaves and every shipped block
// leaf. ivs is parallel to ans.Fragments.
func (st *AuthState) ProveAnswer(ans *Answer, ivs []dsi.Interval) ([]byte, error) {
	return st.prove(ans, ivs, nil)
}

// ProveProbe builds the verification object for the answer to a
// MIN/MAX probe: the complete runs of every band [p.Lo, p.Hi] touches
// (so the owner recomputes the extreme itself, emptiness included —
// see CheckProbe) in the multiproof beside the returned block's leaf.
func (st *AuthState) ProveProbe(ans *Answer, p *Probe) ([]byte, error) {
	return st.prove(ans, nil, p)
}

func (st *AuthState) prove(ans *Answer, ivs []dsi.Interval, probe *Probe) ([]byte, error) {
	if len(ivs) != len(ans.Fragments) {
		return nil, fmt.Errorf("wire: prove answer: %d intervals for %d fragments", len(ivs), len(ans.Fragments))
	}
	p := &AnswerProof{}
	var idxs []int
	for _, iv := range ivs {
		li, ok := st.fragIdx[iv]
		if !ok {
			return nil, fmt.Errorf("wire: prove answer: interval %v has no fragment leaf", iv)
		}
		p.Frags = append(p.Frags, FragRef{Index: li, Lo: iv.Lo, Hi: iv.Hi})
		idxs = append(idxs, li)
	}
	for _, id := range ans.BlockIDs {
		if id < 0 || id >= st.nBlocks {
			return nil, fmt.Errorf("wire: prove answer: block %d out of range", id)
		}
		idxs = append(idxs, id)
	}
	if probe != nil {
		for b := int(probe.Lo >> 56); b <= int(probe.Hi>>56); b++ {
			p.Bands = append(p.Bands, BandBucket{Band: uint8(b), Entries: st.index.Band(uint8(b))})
			idxs = append(idxs, st.bandLeafIndex(uint8(b)))
		}
	}
	if len(idxs) == 0 {
		// An empty answer still gets a proof so a tampering server
		// cannot strip results and omit the proof: commit the
		// structure leaf as a liveness anchor bound to this root.
		idxs = append(idxs, st.structLeafIndex())
	}
	sib, err := st.tree.Prove(idxs)
	if err != nil {
		return nil, err
	}
	p.Siblings = sib
	return MarshalAnswerProof(p)
}

// ApplyUpdates advances the prover state across a batch of updates
// with one multi-leaf delta: replaced blocks get fresh leaf digests,
// every dropped band's leaf is rehashed over its run in next — the
// value index after the batch (the server's next snapshot index, i.e.
// the receiver's index with ReplacedBands(us) installed), which the
// new state adopts — and the tree advances once, along the changed
// leaves' paths (authtree.Tree.With): the batched analogue of
// AuthVerifier.ApplyUpdate, and the reason a group commit pays
// O(k log n) hashes instead of a per-update BuildAuthState (which
// hashes every leaf). It returns a NEW state and leaves the receiver
// untouched, so a caller that must revert (final-root mismatch)
// simply keeps its old pointer. The
// fragment leaves and layout are shared with the receiver: value
// updates never touch residue fragments or the structure leaf.
//
// Equivalence with BuildAuthState: block leaves commit the raw
// ciphertext bytes and band buckets hash the index's canonical runs
// either way — so the incremental root equals the from-scratch root
// for the updated database.
func (st *AuthState) ApplyUpdates(us []*Update, next *btree.Index) (*AuthState, error) {
	changed, err := st.changedLeaves(us, next.Band)
	if err != nil {
		return nil, fmt.Errorf("wire: auth update: %w", err)
	}
	tree, err := st.tree.With(changed)
	if err != nil {
		return nil, fmt.Errorf("wire: auth update: %w", err)
	}
	return &AuthState{leafLayout: st.leafLayout, tree: tree, fragIdx: st.fragIdx, index: next}, nil
}

// Verifier is what an answer transport needs from the owner's
// integrity state: check answers, expose the committed root.
// *AuthVerifier implements it directly; core wraps a ring of recent
// verifiers behind the same interface so lock-free readers can verify
// an answer produced just before a concurrent commit advanced the
// root.
type Verifier interface {
	VerifyAnswer(ans *Answer) error
	Root() authtree.Digest
}

// ContextVerifier is a Verifier whose checks depend on which read is
// asking: core's ring accepts an answer only against roots at least
// as new as the commitment the read pinned, and the read states that
// floor through its context. A transport holding one passes each
// attempt's context along, so the check inside the attempt — where a
// rejection stops the retries and trips the breaker — is the strict
// one, and nobody repeats it.
type ContextVerifier interface {
	Verifier
	VerifyAnswerContext(ctx context.Context, ans *Answer) error
}

// AuthVerifier is the owner-side integrity state: the layout and one
// immutable Merkle tree, whose root is the commitment (about 64 bytes
// per leaf, no hosted data). VerifyAnswer returns an error wrapping
// authtree.ErrTampered on any mismatch; ApplyUpdate advances the state
// so freshness survives updates. Nothing but ApplyUpdate writes a
// verifier, and it only swaps the tree pointer, so concurrent
// VerifyAnswer calls on a verifier nobody advances need no lock.
type AuthVerifier struct {
	leafLayout
	tree *authtree.Tree
}

var _ Verifier = (*AuthVerifier)(nil)

// Root returns the committed root digest.
func (v *AuthVerifier) Root() authtree.Digest { return v.tree.Root() }

// NumBlocks reports the committed block count.
func (v *AuthVerifier) NumBlocks() int { return v.nBlocks }

// Clone returns an independent copy (used to precompute the
// post-update root before the update is acknowledged). The tree is
// immutable, so the copy shares it: advancing either verifier swaps in
// a new tree and leaves the other's as it was.
func (v *AuthVerifier) Clone() *AuthVerifier {
	c := *v
	return &c
}

// VerifyAnswer checks an answer against the committed root before
// anything is decrypted: every fragment's bytes, every block's
// ciphertext and every band run the proof carries must hash to a
// committed leaf, and every block a fragment references must actually
// be present in the answer (the omission check). A missing or
// undecodable proof is itself tampering — a byzantine server must not
// be able to opt out.
func (v *AuthVerifier) VerifyAnswer(ans *Answer) error {
	if len(ans.Proof) == 0 {
		return fmt.Errorf("%w: answer carries no proof", authtree.ErrTampered)
	}
	p, err := UnmarshalAnswerProof(ans.Proof)
	if err != nil {
		return fmt.Errorf("%w: undecodable proof: %v", authtree.ErrTampered, err)
	}
	if len(p.Frags) != len(ans.Fragments) {
		return fmt.Errorf("%w: proof covers %d fragments, answer has %d",
			authtree.ErrTampered, len(p.Frags), len(ans.Fragments))
	}
	var items []authtree.LeafItem
	for i, fr := range p.Frags {
		if fr.Index < v.nBlocks || fr.Index >= v.nBlocks+v.nFrags {
			return fmt.Errorf("%w: fragment leaf index %d outside fragment range", authtree.ErrTampered, fr.Index)
		}
		data := fragLeafData(dsi.Interval{Lo: fr.Lo, Hi: fr.Hi}, ans.Fragments[i])
		items = append(items, authtree.LeafItem{Index: fr.Index, Digest: authtree.LeafHash(data)})
	}
	if len(ans.BlockIDs) != len(ans.Blocks) {
		return fmt.Errorf("%w: %d block IDs for %d blocks", authtree.ErrTampered, len(ans.BlockIDs), len(ans.Blocks))
	}
	for i, id := range ans.BlockIDs {
		if id < 0 || id >= v.nBlocks {
			return fmt.Errorf("%w: block ID %d outside committed range [0,%d)", authtree.ErrTampered, id, v.nBlocks)
		}
		items = append(items, authtree.LeafItem{
			Index:  id,
			Digest: authtree.LeafHash(blockLeafData(id, ans.Blocks[i])),
		})
	}
	for _, bb := range p.Bands {
		items = append(items, authtree.LeafItem{
			Index:  v.bandLeafIndex(bb.Band),
			Digest: authtree.LeafHash(bandLeafData(bb.Band, bb.Entries)),
		})
	}
	if len(items) == 0 {
		// Empty answer: the proof must demonstrate liveness against
		// the current root via the structure leaf.
		items = append(items, authtree.LeafItem{Index: v.structLeafIndex(), Digest: v.tree.Leaf(v.structLeafIndex())})
	}
	if err := authtree.VerifyMulti(v.Root(), v.tree.NumLeaves(), items, p.Siblings); err != nil {
		return err
	}
	return checkReferencedBlocks(ans)
}

// checkReferencedBlocks scans the (now authenticated) fragments and
// confirms every <EncBlock> placeholder they reference arrived in
// the answer — a server silently dropping a referenced block is an
// omission, not a smaller answer. A placeholder the scanner cannot
// read is tampering too: the client's answer assembly would refuse
// it, and the verdict belongs here.
func checkReferencedBlocks(ans *Answer) error {
	have := slices.Clone(ans.BlockIDs) // an honest server ships them sorted already
	slices.Sort(have)
	for _, frag := range ans.Fragments {
		missing := -1
		err := PlaceholderIDs(frag, func(id, _, _ int) {
			if _, ok := slices.BinarySearch(have, id); !ok && missing < 0 {
				missing = id
			}
		})
		if err != nil {
			return fmt.Errorf("%w: %v", authtree.ErrTampered, err)
		}
		if missing >= 0 {
			return fmt.Errorf("%w: fragment references block %d, which the answer omits",
				authtree.ErrTampered, missing)
		}
	}
	return nil
}

// CheckProbe checks what an answer to probe p claims (§6.4): its
// proof carries exactly the bands [p.Lo, p.Hi] touches, in order; the
// answer has no fragments; with no in-range entry in those bands it
// ships no block, and otherwise the one block holding the extreme
// in-range key. It reads the bands without authenticating them, so it
// runs after VerifyAnswer has accepted the answer against a root, and
// depends on no root itself. Failures wrap authtree.ErrTampered.
func CheckProbe(p *Probe, ans *Answer) error {
	pr, err := UnmarshalAnswerProof(ans.Proof)
	if err != nil {
		return fmt.Errorf("%w: undecodable proof: %v", authtree.ErrTampered, err)
	}
	loBand := int(p.Lo >> 56)
	if want := int(p.Hi>>56) - loBand + 1; len(pr.Bands) != want {
		return fmt.Errorf("%w: proof covers %d bands, range touches %d", authtree.ErrTampered, len(pr.Bands), want)
	}
	if len(ans.Fragments) > 0 || len(ans.BlockIDs) > 1 {
		return fmt.Errorf("%w: probe answer ships %d fragments and %d blocks",
			authtree.ErrTampered, len(ans.Fragments), len(ans.BlockIDs))
	}
	var best uint64
	found := false
	for i, bb := range pr.Bands {
		if int(bb.Band) != loBand+i {
			return fmt.Errorf("%w: band %d out of place", authtree.ErrTampered, bb.Band)
		}
		for _, e := range bb.Entries {
			if e.Key >= p.Lo && e.Key <= p.Hi && (!found || (p.Max && e.Key > best) || (!p.Max && e.Key < best)) {
				best, found = e.Key, true
			}
		}
	}
	switch {
	case !found && len(ans.BlockIDs) == 0:
		return nil
	case !found:
		return fmt.Errorf("%w: server returned a block for an empty range", authtree.ErrTampered)
	case len(ans.BlockIDs) == 0:
		return fmt.Errorf("%w: server claimed no entries, committed bands hold some in range", authtree.ErrTampered)
	}
	for _, bb := range pr.Bands {
		for _, e := range bb.Entries {
			if e.Key == best && e.BlockID == ans.BlockIDs[0] {
				return nil
			}
		}
	}
	return fmt.Errorf("%w: returned block %d does not hold the extreme key", authtree.ErrTampered, ans.BlockIDs[0])
}

// ApplyUpdate advances the verifier to the post-update state:
// replaced blocks get fresh leaf digests, dropped bands are replaced
// wholesale by the update's entries for that band (ReplacedBands, so
// the update must be band-closed), and the tree advances along the
// changed leaves' paths (authtree.Tree.With), so one edit costs
// O(log n) hashes, not a rebuild. On error the verifier is unchanged.
func (v *AuthVerifier) ApplyUpdate(u *Update) error {
	us := []*Update{u}
	bands, err := ReplacedBands(us)
	if err != nil {
		return err
	}
	items, err := v.changedLeaves(us, func(b uint8) []btree.Entry { return bands[b] })
	if err != nil {
		return fmt.Errorf("wire: verifier update: %w", err)
	}
	tree, err := v.tree.With(items)
	if err != nil {
		return fmt.Errorf("wire: verifier update: %w", err)
	}
	v.tree = tree
	return nil
}
