package dsi

import (
	"repro/internal/cryptoprim"
	"repro/internal/xmltree"
)

// Table is the DSI index table (§5.1.1): the mapping from tags — in
// encrypted form when the node lies in an encryption block — to
// their DSI index entries, with runs of adjacent same-tag nodes of
// the same block grouped into a single interval so the server cannot
// count them.
type Table struct {
	ByTag map[string][]Interval
}

// TagLabel returns the label under which a node's intervals are
// stored in the DSI table: the Vernam-encrypted tag when the node is
// inside an encryption block, the plaintext tag otherwise.
// Attribute tags carry their "@" prefix into encryption so that
// elements and attributes never collide.
func TagLabel(n *xmltree.Node, encrypted bool, keys *cryptoprim.KeySet) string {
	tag := n.Tag
	if n.Kind == xmltree.Attribute {
		tag = "@" + n.Tag
	}
	if encrypted {
		return keys.EncryptTag(tag)
	}
	return tag
}

// Metadata bundles everything the client uploads alongside the
// encrypted document: both tables plus the node-level bookkeeping
// the client (not the server) retains for assembling the upload.
type Metadata struct {
	Table *Table
	// BlockReps is the encryption block table (§5.1.1): BlockReps[i]
	// is the representative interval (the interval of the block's
	// subtree root) of block ID i.
	BlockReps []Interval
	// NodeBlock maps each document node to the ID of the block that
	// contains it, or -1 for plaintext nodes. Client-side only.
	NodeBlock map[*xmltree.Node]int
	// Assignment is the full per-node interval map. Client-side only.
	Assignment Assignment
}

// BuildMetadata assigns DSI intervals and constructs the server
// metadata for a document encrypted with the given block roots.
// blockRoots must be non-nested and in document order (as produced
// by package scheme). It fails when the document is too deep or wide
// for float64 DSI bounds (see Assign).
func BuildMetadata(doc *xmltree.Document, blockRoots []*xmltree.Node, keys *cryptoprim.KeySet) (*Metadata, error) {
	asg, err := Assign(doc, keys)
	if err != nil {
		return nil, err
	}
	nodeBlock := map[*xmltree.Node]int{}
	for _, n := range doc.Nodes() {
		nodeBlock[n] = -1
	}
	reps := make([]Interval, len(blockRoots))
	for id, root := range blockRoots {
		root.Walk(func(n *xmltree.Node) bool {
			nodeBlock[n] = id
			return true
		})
		reps[id] = asg[root]
	}

	table := &Table{ByTag: map[string][]Interval{}}
	var walk func(n *xmltree.Node)
	walk = func(n *xmltree.Node) {
		children := indexableChildren(n)
		for i := 0; i < len(children); {
			c := children[i]
			bid := nodeBlock[c]
			label := TagLabel(c, bid >= 0, keys)
			// Group a maximal run of adjacent same-tag children
			// encrypted in the same block (§5.1.1).
			j := i + 1
			if bid >= 0 {
				for j < len(children) &&
					children[j].Kind == c.Kind &&
					children[j].Tag == c.Tag &&
					nodeBlock[children[j]] == bid {
					j++
				}
			}
			run := make([]Interval, 0, j-i)
			for k := i; k < j; k++ {
				run = append(run, asg[children[k]])
			}
			table.ByTag[label] = append(table.ByTag[label], Merge(run))
			for k := i; k < j; k++ {
				walk(children[k])
			}
			i = j
		}
	}
	if doc.Root != nil {
		rootLabel := TagLabel(doc.Root, nodeBlock[doc.Root] >= 0, keys)
		table.ByTag[rootLabel] = append(table.ByTag[rootLabel], asg[doc.Root])
		walk(doc.Root)
	}
	for _, ivs := range table.ByTag {
		SortIntervals(ivs)
	}
	return &Metadata{Table: table, BlockReps: reps, NodeBlock: nodeBlock, Assignment: asg}, nil
}

// NumEntries returns the number of (tag, interval) entries.
func (t *Table) NumEntries() int {
	n := 0
	for _, ivs := range t.ByTag {
		n += len(ivs)
	}
	return n
}
