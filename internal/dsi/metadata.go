package dsi

import (
	"cmp"
	"slices"
	"sort"

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
// by package scheme).
func BuildMetadata(doc *xmltree.Document, blockRoots []*xmltree.Node, keys *cryptoprim.KeySet) *Metadata {
	asg := Assign(doc, keys)
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
	return &Metadata{Table: table, BlockReps: reps, NodeBlock: nodeBlock, Assignment: asg}
}

// Lookup returns the index entries for a tag label, nil when absent.
func (t *Table) Lookup(label string) []Interval { return t.ByTag[label] }

// NumEntries returns the number of (tag, interval) entries.
func (t *Table) NumEntries() int {
	n := 0
	for _, ivs := range t.ByTag {
		n += len(ivs)
	}
	return n
}

// Forest is the server's node table: the laminar forest of the DSI
// table's distinct intervals, numbered 0..n−1 in pre-order (Lo asc,
// Hi desc), with one column per fact about a node — its interval, its
// forest parent, its table labels and its guide class. It supports
// the structural joins of §6.2 (child via the paper's
// desc-with-no-intermediate characterization) and carries the
// path-class guide the planner prunes against. num is the one place
// an interval is hashed: callers holding an interval look up its
// number once and read columns from there.
type Forest struct {
	ivs    []Interval
	parent []int32 // node number of the forest parent, -1 for roots
	label  []int32 // index into labels
	// labels holds every distinct label set: one single-label set per
	// table label, then one set per interval filed under several.
	labels [][]string
	class  []int32 // guide class; nil when guide is
	guide  *Guide
	num    map[Interval]int32
}

// BuildForest builds the node table of a DSI table in one pass over
// its entries sorted once, then derives the guide from its columns.
func BuildForest(t *Table) *Forest {
	names := make([]string, 0, len(t.ByTag))
	n := 0
	for name, ivs := range t.ByTag {
		names = append(names, name)
		n += len(ivs)
	}
	sort.Strings(names)
	type entry struct {
		iv    Interval
		label int32
	}
	entries := make([]entry, 0, n)
	for k, name := range names {
		for _, iv := range t.ByTag[name] {
			entries = append(entries, entry{iv, int32(k)})
		}
	}
	slices.SortFunc(entries, func(a, b entry) int {
		return cmp.Or(cmp.Compare(a.iv.Lo, b.iv.Lo), cmp.Compare(b.iv.Hi, a.iv.Hi), cmp.Compare(a.label, b.label))
	})
	f := &Forest{
		ivs:    make([]Interval, 0, n),
		parent: make([]int32, 0, n),
		label:  make([]int32, 0, n),
		labels: make([][]string, len(names)),
		num:    make(map[Interval]int32, n),
	}
	for k := range names {
		f.labels[k] = names[k : k+1 : k+1]
	}
	var stack []int32
	for i := 0; i < len(entries); {
		iv, label := entries[i].iv, entries[i].label
		j := i + 1
		for ; j < len(entries) && entries[j].iv == iv; j++ {
			if entries[j].label != entries[j-1].label { // filed under several labels
				if label == entries[i].label {
					label = int32(len(f.labels))
					f.labels = append(f.labels, []string{names[entries[i].label]})
				}
				f.labels[label] = append(f.labels[label], names[entries[j].label])
			}
		}
		i = j
		for len(stack) > 0 && !f.ivs[stack[len(stack)-1]].StrictlyContains(iv) {
			stack = stack[:len(stack)-1]
		}
		parent := int32(-1)
		if len(stack) > 0 {
			parent = stack[len(stack)-1]
		}
		node := int32(len(f.ivs))
		f.ivs = append(f.ivs, iv)
		f.parent = append(f.parent, parent)
		f.label = append(f.label, label)
		f.num[iv] = node
		stack = append(stack, node)
	}
	f.guide, f.class = buildGuide(f)
	return f
}

// Num returns the node number of a table interval, -1 for any other.
func (f *Forest) Num(iv Interval) int32 {
	if i, ok := f.num[iv]; ok {
		return i
	}
	return -1
}

// Interval returns node i's interval.
func (f *Forest) Interval(i int32) Interval { return f.ivs[i] }

// Parent returns node i's parent number, -1 for a root.
func (f *Forest) Parent(i int32) int32 { return f.parent[i] }

// Labels returns the table labels node i is filed under. The slice is
// shared: callers must not modify it.
func (f *Forest) Labels(i int32) []string { return f.labels[f.label[i]] }

// Class returns node i's guide class, -1 when the forest has no guide.
func (f *Forest) Class(i int32) int32 {
	if f.class == nil {
		return -1
	}
	return f.class[i]
}

// IsLeaf reports that no table interval lies strictly inside node i:
// in pre-order, the node after a non-leaf is its first child.
func (f *Forest) IsLeaf(i int32) bool {
	return int(i)+1 == len(f.ivs) || f.parent[i+1] != i
}

// Guide returns the path-class guide, nil when some interval is filed
// under more than one table label (see buildGuide).
func (f *Forest) Guide() *Guide { return f.guide }

// ParentOf returns the tightest interval strictly containing iv.
func (f *Forest) ParentOf(iv Interval) (Interval, bool) {
	i, ok := f.num[iv]
	if !ok || f.parent[i] < 0 {
		return Interval{}, false
	}
	return f.ivs[f.parent[i]], true
}

// AreSiblings reports that a and b are distinct nodes with one parent.
func (f *Forest) AreSiblings(a, b Interval) bool {
	na, oka := f.num[a]
	nb, okb := f.num[b]
	return oka && okb && na != nb && f.parent[na] >= 0 && f.parent[na] == f.parent[nb]
}

// FollowingSibling reports that b is a sibling of a occurring after it.
func (f *Forest) FollowingSibling(a, b Interval) bool {
	return f.AreSiblings(a, b) && a.Before(b)
}

// Intervals returns the node intervals in node-number order: the
// table's distinct intervals, sorted. The slice is shared: callers
// must not modify it.
func (f *Forest) Intervals() []Interval { return f.ivs }

// Size returns the number of nodes (distinct intervals).
func (f *Forest) Size() int { return len(f.ivs) }
