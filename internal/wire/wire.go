// Package wire defines the data that crosses the trust boundary of
// Figure 1: the hosted database the client uploads (encrypted blocks
// + metadata), the translated query Qs the client sends, and the
// answer (encrypted blocks and plaintext fragments) the server
// returns. Everything in this package is, by construction, visible
// to the untrusted server; nothing here may reference client keys or
// plaintext values of encrypted nodes.
package wire

import (
	"repro/internal/btree"
	"repro/internal/dsi"
	"repro/internal/opess"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// PlaceholderTag is the element tag standing in for an encryption
// block in the plaintext residue the server stores.
const PlaceholderTag = "EncBlock"

// DecoyTag marks the decoy element inside an encrypted block's
// serialized plaintext (§4.1); it exists only under encryption and
// is stripped by the client after decryption.
const DecoyTag = "_decoy"

// AttrWrapTag wraps an attribute node when an attribute itself is an
// encryption block (the placeholder cannot be an attribute).
const AttrWrapTag = "_attr"

// BlockWrapTag is the envelope element around every encryption
// block's plaintext serialization; it keeps the decoy a sibling of
// the block content (the data model forbids mixed content) and is
// removed by the client after decryption.
const BlockWrapTag = "_blk"

// HostedDB is everything the client uploads to the server.
type HostedDB struct {
	// Residue is the document with every encryption block replaced
	// by an <EncBlock id="..."/> placeholder.
	Residue *xmltree.Document
	// ResidueIntervals gives the DSI interval of every element and
	// attribute node of the residue (placeholders carry the interval
	// of the block root they replace).
	ResidueIntervals map[*xmltree.Node]dsi.Interval
	// Table is the DSI index table (§5.1.1).
	Table *dsi.Table
	// BlockReps maps block ID -> representative interval.
	BlockReps []dsi.Interval
	// Blocks holds the AES-GCM ciphertext of each block by ID.
	Blocks [][]byte
	// IndexEntries are the OPESS value-index entries; the server
	// buckets them into one sorted run per band (btree.Index).
	IndexEntries []btree.Entry
}

// ByteSize approximates the upload size: residue XML plus ciphertext
// plus table and index entries at their serialized width. Used by
// the experiments' size accounting (§7.4).
func (h *HostedDB) ByteSize() int {
	n := h.Residue.ByteSize()
	for _, b := range h.Blocks {
		n += len(b)
	}
	n += h.Table.NumEntries() * entryWidth
	n += len(h.BlockReps) * repWidth
	n += len(h.IndexEntries) * indexEntryWidth
	return n
}

const (
	entryWidth      = 16 + 16 // tag label + two float64s
	repWidth        = 4 + 16  // id + interval
	indexEntryWidth = 8 + 4   // key + block id
)

// Query is the translated query Qs: the same shape as the client's
// XPath AST, but every node test carries the DSI table labels to
// match (encrypted labels for encrypted tags) and every value
// comparison is either a plaintext comparison (target stored in the
// residue) or a set of OPESS ciphertext ranges (target encrypted).
type Query struct {
	First *QStep
	// WantProof asks the server to attach a Merkle verification
	// object (see auth.go) to the answer.
	WantProof bool
	// Probe, set instead of First, makes this a §6.4 MIN/MAX probe of
	// the value index: the answer carries no fragments and the block
	// holding the extreme indexed key in the probe's range, or none,
	// and its proof the complete runs of the bands the range touches.
	Probe *Probe
}

// Probe asks for the block holding the smallest (or, with Max, the
// largest) indexed ciphertext key in [Lo, Hi].
type Probe struct {
	Lo, Hi uint64
	Max    bool
}

// QStep is one location step of a translated path.
type QStep struct {
	Axis xpath.Axis
	// Desc marks a step reached through "//".
	Desc bool
	// Labels are the DSI table labels this step's node test matches;
	// empty means wildcard (any interval).
	Labels []string
	Preds  []QPred
	Next   *QStep
}

// QPred is a translated predicate.
type QPred interface{ qpred() }

// PredExists requires the relative path to match structurally.
type PredExists struct{ Path *QStep }

// PredValue constrains the leaf value reached by Path. Exactly one
// of the two halves is active: Plain compares residue values
// directly; otherwise Ranges are looked up in the value index.
type PredValue struct {
	Path   *QStep
	Plain  bool
	Op     xpath.Op      // plaintext comparison
	Lit    string        // plaintext literal
	Ranges []opess.Range // ciphertext ranges (Fig. 7a)
}

// PredAnd / PredOr / PredNot combine predicates.
type PredAnd struct{ L, R QPred }
type PredOr struct{ L, R QPred }
type PredNot struct{ E QPred }

// PredPos filters by 1-based position among the matches the step
// selects from one context node, in document order (xpath.PosExpr).
// The server never applies it: a grouped interval hides how many
// siblings it stands for, so a position is possible, never certain,
// and the client re-applies the original query to the answer. The
// anchors of a query's first step ship without their parents, so
// there the client counts a position among all anchors as siblings.
type PredPos struct{ N int }

func (*PredExists) qpred() {}
func (*PredValue) qpred()  {}
func (*PredAnd) qpred()    {}
func (*PredOr) qpred()     {}
func (*PredNot) qpred()    {}
func (*PredPos) qpred()    {}

// Steps returns the main-path steps in order.
func (q *Query) Steps() []*QStep {
	var out []*QStep
	for s := q.First; s != nil; s = s.Next {
		out = append(out, s)
	}
	return out
}

// Answer is the server's response: for every matched anchor (the
// binding of the query's first step) either the plaintext residue
// fragment plus the referenced blocks, or — when the anchor itself
// is encrypted — just its containing block.
type Answer struct {
	// Fragments are serialized residue subtrees (with EncBlock
	// placeholders still inside).
	Fragments [][]byte
	// BlockIDs lists every encryption block referenced by the
	// fragments or matched directly, ascending, deduplicated.
	BlockIDs []int
	// Blocks carries the ciphertext of those blocks, parallel to
	// BlockIDs.
	Blocks [][]byte
	// Proof is the encoded Merkle verification object (AnswerProof),
	// present only when the query asked for one; it rides in the SXS1
	// trailer.
	Proof []byte
	// Epoch and Generation echo the answering server's boot nonce
	// and monotonic db generation counter (bumped by every applied
	// update): the client keys its decrypted-block cache under the
	// pair, so an answer from a restarted or rolled-back server makes
	// it drop cached plaintext instead of serving stale data. Both
	// ride in the SXS1 header. A generation of zero means "unknown"
	// (an answer built outside a server); caching layers skip reuse.
	Epoch      uint64
	Generation uint64
	// PlanStrategy and PlanCost report which strategy the server's
	// cost-based planner executed ("twig" or "pairwise") and its
	// admission-cost estimate. Observability only: they deliberately
	// do NOT marshal — answer bytes are strategy-independent (that is
	// the planner's correctness contract) — and travel out-of-band as
	// response headers on the remote path (see remote.Service).
	PlanStrategy string
	PlanCost     int64
}

// ByteSize is the number of bytes shipped back to the client; the
// transmission-time accounting of §7.2 uses it.
func (a *Answer) ByteSize() int {
	n := 0
	for _, f := range a.Fragments {
		n += len(f)
	}
	for _, b := range a.Blocks {
		n += len(b)
	}
	return n + 4*len(a.BlockIDs)
}
