// Package authtree is the authenticated-data-structure half of the
// DAS trust model: the paper's architecture (§2) protects
// confidentiality against the untrusted server, and this package
// adds integrity and freshness. The client commits to the hosted
// state with a Merkle tree built over a canonical leaf sequence
// (encrypted blocks, residue fragments, value-index buckets — see
// internal/wire's auth layer for the leaf schema), keeps the tree's
// digests but none of the hosted data, and verifies every server
// response against the root with a compact sibling-path proof. A
// response that was modified, spliced from another version, or rolled
// back to a pre-update state fails verification and surfaces as
// ErrTampered.
//
// The tree is built over data the server already sees, so it leaks
// nothing: the server can (and does) rebuild the identical tree from
// the uploaded database and serve proofs without holding any key.
package authtree

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"repro/internal/cryptoprim"
)

// DigestSize is the byte width of every node digest (SHA-256).
const DigestSize = cryptoprim.DigestSize

// Digest is one Merkle node hash.
type Digest = cryptoprim.Digest

// ErrTampered reports a server response that failed integrity
// verification: the returned data was modified, a committed piece was
// omitted, or the server served a stale (pre-update) version of the
// database. It is terminal — retrying a byzantine server cannot
// succeed, so the remote retry policy never retries it and the
// circuit breaker trips immediately.
var ErrTampered = errors.New("authtree: response failed integrity verification (modified, omitted, or stale server state)")

// LeafHash hashes canonical leaf data into its leaf digest. The
// domain-separated primitives live in cryptoprim so the prefix
// discipline is defined next to the other crypto.
func LeafHash(data []byte) Digest {
	return cryptoprim.MerkleLeafHash(data)
}

func nodeHash(l, r Digest) Digest {
	return cryptoprim.MerkleNodeHash(l, r)
}

// Tree is an immutable Merkle tree over a fixed leaf sequence. Levels
// are stored bottom-up; an odd node at the end of a level is promoted
// unchanged, so the shape is fully determined by the leaf count.
type Tree struct {
	levels [][]Digest // levels[0] = leaf digests, last level = [root]
}

// New builds a tree over pre-hashed leaf digests.
func New(leaves []Digest) *Tree {
	t := &Tree{}
	level := append([]Digest(nil), leaves...)
	t.levels = append(t.levels, level)
	for len(level) > 1 {
		next := make([]Digest, 0, (len(level)+1)/2)
		for i := 0; i < len(level); i += 2 {
			if i+1 < len(level) {
				next = append(next, nodeHash(level[i], level[i+1]))
			} else {
				next = append(next, level[i]) // odd node promoted
			}
		}
		t.levels = append(t.levels, next)
		level = next
	}
	return t
}

// NewFromData hashes raw leaf data and builds the tree.
func NewFromData(leafData [][]byte) *Tree {
	leaves := make([]Digest, len(leafData))
	for i, d := range leafData {
		leaves[i] = LeafHash(d)
	}
	return New(leaves)
}

// NumLeaves reports the leaf count.
func (t *Tree) NumLeaves() int {
	if len(t.levels) == 0 {
		return 0
	}
	return len(t.levels[0])
}

// Leaf returns the digest of leaf i.
func (t *Tree) Leaf(i int) Digest { return t.levels[0][i] }

// With returns the tree whose leaves are the receiver's with the
// given digests substituted; when an index appears twice, the later
// item wins. Only the changed leaves' ancestors are rehashed — the
// sorted, deduplicated, level-by-level halving Prove and VerifyMulti
// walk — so k changed leaves cost O(k log n) node hashes where New
// costs n. Every level is copied (a memcpy, no hashing), so the
// receiver is left as it was and both trees stay immutable. An index
// out of range is an error.
func (t *Tree) With(items []LeafItem) (*Tree, error) {
	n := t.NumLeaves()
	known := make([]int, len(items))
	for i, it := range items {
		if it.Index < 0 || it.Index >= n {
			return nil, fmt.Errorf("authtree: leaf index %d out of range [0,%d)", it.Index, n)
		}
		known[i] = it.Index
	}
	next := &Tree{levels: make([][]Digest, len(t.levels))}
	for i, level := range t.levels {
		next.levels[i] = slices.Clone(level)
	}
	for _, it := range items {
		next.levels[0][it.Index] = it.Digest
	}
	slices.Sort(known)
	known = slices.Compact(known)
	for lvl := 0; lvl < len(next.levels)-1 && len(known) > 0; lvl++ {
		level, up := next.levels[lvl], next.levels[lvl+1]
		parents := known[:0]
		for i := 0; i < len(known); i++ {
			idx := known[i]
			if left := idx &^ 1; left+1 < len(level) {
				up[idx/2] = nodeHash(level[left], level[left+1])
			} else {
				up[idx/2] = level[idx] // odd node promoted
			}
			if idx&1 == 0 && i+1 < len(known) && known[i+1] == idx+1 {
				i++ // both halves changed: one hash covers them
			}
			parents = append(parents, idx/2)
		}
		known = parents
	}
	return next, nil
}

// Root returns the root digest. The root of an empty tree is the
// hash of empty leaf data, so it is still a binding commitment.
func (t *Tree) Root() Digest {
	if t.NumLeaves() == 0 {
		return LeafHash(nil)
	}
	return t.levels[len(t.levels)-1][0]
}

// Prove produces the multi-leaf membership proof for the given leaf
// indices: the sibling digests a verifier holding exactly those
// leaves needs, in the deterministic bottom-up, left-to-right order
// VerifyMulti consumes them. Duplicate indices are allowed; out of
// range ones are an error.
func (t *Tree) Prove(indices []int) ([]Digest, error) {
	n := t.NumLeaves()
	for _, idx := range indices {
		if idx < 0 || idx >= n {
			return nil, fmt.Errorf("authtree: leaf index %d out of range [0,%d)", idx, n)
		}
	}
	// One sorted slice of known node indices, halved in place level by
	// level — the same walk VerifyMulti makes over (index, digest) pairs.
	known := append([]int(nil), indices...)
	slices.Sort(known)
	known = slices.Compact(known)
	var siblings []Digest
	for lvl := 0; lvl < len(t.levels)-1 && len(known) > 0; lvl++ {
		level := t.levels[lvl]
		next := known[:0]
		for i := 0; i < len(known); i++ {
			idx := known[i]
			switch sib := idx ^ 1; {
			case sib >= len(level):
				// Odd node promoted unchanged.
			case idx&1 == 0 && i+1 < len(known) && known[i+1] == sib:
				i++ // both halves known: no sibling needed
			default:
				siblings = append(siblings, level[sib])
			}
			next = append(next, idx/2)
		}
		known = next
	}
	return siblings, nil
}

// LeafItem pairs a leaf index with its digest, for verification and
// for With.
type LeafItem struct {
	Index  int
	Digest Digest
}

// VerifyMulti checks a multi-leaf proof: given the tree's total leaf
// count, the claimed (index, digest) pairs and the sibling sequence
// from Prove, it recomputes the root and compares. The leaf count is
// part of the client's trusted state, so a server cannot shift the
// tree shape. Returns nil on success and ErrTampered (wrapped with
// detail) on any mismatch. items is not modified: the walk runs over
// one sorted copy, halved in place per level, so a proof of any size
// costs one allocation.
func VerifyMulti(root Digest, numLeaves int, items []LeafItem, siblings []Digest) error {
	if numLeaves <= 0 {
		return fmt.Errorf("%w: empty tree cannot prove membership", ErrTampered)
	}
	if len(items) == 0 {
		return fmt.Errorf("%w: proof covers no leaves", ErrTampered)
	}
	known := append([]LeafItem(nil), items...)
	slices.SortFunc(known, func(a, b LeafItem) int { return cmp.Compare(a.Index, b.Index) })
	if lo, hi := known[0].Index, known[len(known)-1].Index; lo < 0 || hi >= numLeaves {
		return fmt.Errorf("%w: leaf index outside [0,%d)", ErrTampered, numLeaves)
	}
	// A leaf claimed twice must be claimed with one digest.
	uniq := known[:1]
	for _, it := range known[1:] {
		if last := uniq[len(uniq)-1]; it.Index != last.Index {
			uniq = append(uniq, it)
		} else if it.Digest != last.Digest {
			return fmt.Errorf("%w: conflicting digests for leaf %d", ErrTampered, it.Index)
		}
	}
	known = uniq
	pos := 0
	for width := numLeaves; width > 1; width = (width + 1) / 2 {
		// next trails the read position (every step consumes at least
		// the node it emits), so it can reuse known's backing array.
		next := known[:0]
		for i := 0; i < len(known); i++ {
			it := known[i]
			parent := LeafItem{Index: it.Index / 2, Digest: it.Digest}
			switch sib := it.Index ^ 1; {
			case sib >= width:
				// Odd node promoted unchanged.
			case it.Index&1 == 0 && i+1 < len(known) && known[i+1].Index == sib:
				parent.Digest = nodeHash(it.Digest, known[i+1].Digest)
				i++
			case pos >= len(siblings):
				return fmt.Errorf("%w: proof too short", ErrTampered)
			case it.Index&1 == 0:
				parent.Digest = nodeHash(it.Digest, siblings[pos])
				pos++
			default:
				parent.Digest = nodeHash(siblings[pos], it.Digest)
				pos++
			}
			next = append(next, parent)
		}
		known = next
	}
	if pos != len(siblings) {
		return fmt.Errorf("%w: %d unused sibling digests", ErrTampered, len(siblings)-pos)
	}
	if got := known[0].Digest; got != root {
		return fmt.Errorf("%w: recomputed root %x does not match committed root %x", ErrTampered, got[:8], root[:8])
	}
	return nil
}
