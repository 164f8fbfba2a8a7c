package dsi

import (
	"cmp"
	"slices"
	"sort"
)

// Forest is the server's node table: the laminar forest of the DSI
// table's distinct intervals, numbered 0..n−1 in pre-order (Lo asc,
// Hi desc), with one column per fact about a node — its interval, its
// forest parent, its last descendant and its table labels — and, per
// table label, the label's members in ascending number order. A
// node's subtree is the number range [i, end[i]], so the structural
// joins of §6.2 are binary searches over int32 member lists plus reads
// of the parent column, and no interval is compared or hashed once the
// table is built: Num, the one interval lookup, serves boot only.
type Forest struct {
	ivs    []Interval
	parent []int32 // node number of the forest parent, -1 for roots
	end    []int32 // number of the last node of the subtree, i for a leaf
	label  []int32 // index into labels
	// labels holds every distinct label set: one single-label set per
	// table label (labels[k] = {names[k]}), then one set per interval
	// filed under several.
	labels [][]string
	names  []string  // the table labels, sorted
	lists  [][]int32 // lists[k]: the nodes filed under names[k], ascending
	all    []int32   // 0..n−1, a wildcard's list
	guide  *Guide
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
	// Each label's list is a capped window of one backing array, as
	// long as the label's entry count (its upper bound).
	backing, off := make([]int32, n), 0
	f := &Forest{
		ivs:    make([]Interval, 0, n),
		parent: make([]int32, 0, n),
		end:    make([]int32, 0, n),
		label:  make([]int32, 0, n),
		labels: make([][]string, len(names)),
		names:  names,
		lists:  make([][]int32, len(names)),
	}
	for k, name := range names {
		for _, iv := range t.ByTag[name] {
			entries = append(entries, entry{iv, int32(k)})
		}
		c := len(t.ByTag[name])
		f.labels[k] = names[k : k+1 : k+1]
		f.lists[k] = backing[off : off : off+c]
		off += c
	}
	slices.SortFunc(entries, func(a, b entry) int {
		return cmp.Or(compareIntervals(a.iv, b.iv), cmp.Compare(a.label, b.label))
	})
	var stack []int32
	for i := 0; i < len(entries); {
		iv, label := entries[i].iv, entries[i].label
		node := int32(len(f.ivs))
		f.lists[label] = append(f.lists[label], node)
		j := i + 1
		for ; j < len(entries) && entries[j].iv == iv; j++ {
			if l := entries[j].label; l != entries[j-1].label { // filed under several labels
				if label == entries[i].label {
					label = int32(len(f.labels))
					f.labels = append(f.labels, []string{names[entries[i].label]})
				}
				f.labels[label] = append(f.labels[label], names[l])
				f.lists[l] = append(f.lists[l], node)
			}
		}
		i = j
		for len(stack) > 0 && !f.ivs[stack[len(stack)-1]].StrictlyContains(iv) {
			f.end[stack[len(stack)-1]] = node - 1
			stack = stack[:len(stack)-1]
		}
		parent := int32(-1)
		if len(stack) > 0 {
			parent = stack[len(stack)-1]
		}
		f.ivs = append(f.ivs, iv)
		f.parent = append(f.parent, parent)
		f.end = append(f.end, node)
		f.label = append(f.label, label)
		stack = append(stack, node)
	}
	for _, s := range stack {
		f.end[s] = int32(len(f.ivs)) - 1
	}
	f.all = make([]int32, len(f.ivs))
	for i := range f.all {
		f.all[i] = int32(i)
	}
	f.guide = buildGuide(f)
	return f
}

// compareIntervals is the SortIntervals order: Lo asc, Hi desc.
func compareIntervals(a, b Interval) int {
	return cmp.Or(cmp.Compare(a.Lo, b.Lo), cmp.Compare(b.Hi, a.Hi))
}

// Num returns the node number of a table interval, -1 for any other.
// It binary-searches the node intervals, so it serves boot (residue
// intervals, block representatives), not the matcher.
func (f *Forest) Num(iv Interval) int32 {
	if i, ok := slices.BinarySearchFunc(f.ivs, iv, compareIntervals); ok {
		return int32(i)
	}
	return -1
}

// Interval returns node i's interval.
func (f *Forest) Interval(i int32) Interval { return f.ivs[i] }

// Parent returns node i's parent number, -1 for a root.
func (f *Forest) Parent(i int32) int32 { return f.parent[i] }

// End returns the number of the last node in node i's subtree: the
// subtree is exactly the nodes [i, End(i)].
func (f *Forest) End(i int32) int32 { return f.end[i] }

// Labels returns the table labels node i is filed under. The slice is
// shared: callers must not modify it.
func (f *Forest) Labels(i int32) []string { return f.labels[f.label[i]] }

// IsLeaf reports that no table interval lies strictly inside node i.
func (f *Forest) IsLeaf(i int32) bool { return f.end[i] == i }

// Nodes returns the nodes filed under a table label in ascending
// number (document) order, nil for a label the table lacks. The slice
// is shared: callers must not modify it.
func (f *Forest) Nodes(label string) []int32 {
	if k, ok := slices.BinarySearch(f.names, label); ok {
		return f.lists[k]
	}
	return nil
}

// All returns every node number, ascending: a wildcard's list. The
// slice is shared: callers must not modify it.
func (f *Forest) All() []int32 { return f.all }

// Guide returns the path-class guide, nil when some interval is filed
// under more than one table label (see buildGuide).
func (f *Forest) Guide() *Guide { return f.guide }

// Size returns the number of nodes (distinct intervals).
func (f *Forest) Size() int { return len(f.ivs) }

// Descendants returns the members of the ascending node list that lie
// strictly inside node i's subtree: the list's window (i, End(i)],
// found by two binary searches. The result aliases list.
func (f *Forest) Descendants(list []int32, i int32) []int32 {
	lo, _ := slices.BinarySearch(list, i+1)
	hi, _ := slices.BinarySearch(list[lo:], f.end[i]+1)
	return list[lo : lo+hi]
}

// JoinDescendants appends to dst the members of the ascending list
// lying strictly inside the subtree of some node of the ascending
// context list ctxs, once each and in ascending order: the batched
// descendant join of §6.2. A context nested in an earlier one adds
// nothing, so each outermost context costs two binary searches.
func (f *Forest) JoinDescendants(dst, ctxs, list []int32) []int32 {
	for k := 0; k < len(ctxs); {
		a := ctxs[k]
		dst = append(dst, f.Descendants(list, a)...)
		for k++; k < len(ctxs) && ctxs[k] <= f.end[a]; k++ {
		}
	}
	return dst
}

// JoinChildren appends to dst the members of the ascending list whose
// parent is a node of the ascending context list ctxs, once each and
// in ascending order: the batched child join. Below each outermost
// context, a member is kept when its parent is one of the contexts in
// that subtree.
func (f *Forest) JoinChildren(dst, ctxs, list []int32) []int32 {
	for k := 0; k < len(ctxs); {
		a, first := ctxs[k], k
		for k++; k < len(ctxs) && ctxs[k] <= f.end[a]; k++ {
		}
		for _, n := range f.Descendants(list, a) {
			if _, ok := slices.BinarySearch(ctxs[first:k], f.parent[n]); ok {
				dst = append(dst, n)
			}
		}
	}
	return dst
}

// Outermost compacts an ascending node list in place to the nodes
// that lie in no other listed node's subtree (duplicates included),
// and returns it.
func (f *Forest) Outermost(nums []int32) []int32 {
	out := nums[:0]
	for _, n := range nums {
		if len(out) == 0 || n > f.end[out[len(out)-1]] {
			out = append(out, n)
		}
	}
	return out
}
