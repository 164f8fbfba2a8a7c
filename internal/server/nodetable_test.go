package server_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/difftest"
	"repro/internal/dsi"
	"repro/internal/server"
	"repro/internal/wire"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// TestNodeTableMatchesMaps checks the node table New builds against
// the interval-keyed structures it replaced, kept below as the
// reference: the interval forest with its start map, the guide with
// its label and class maps, the label inversion and the residue map.
// On every interval of every difftest corpus document and of a NASA
// and an XMark document, under every scheme, the node table must agree
// on the node's number (pre-order), parent, last descendant, labels,
// leafness, sibling relation, class and residue fact, on every table
// label's member list, and the guide on every class's label, parent,
// children and member list.
func TestNodeTableMatchesMaps(t *testing.T) {
	type doc struct {
		name string
		doc  *xmltree.Document
		scs  []string
	}
	var docs []doc
	for _, seed := range difftest.CorpusSeeds {
		c := difftest.GenCase(seed)
		docs = append(docs, doc{fmt.Sprintf("%s/%d", c.DocName, seed), c.Doc, c.SCs})
	}
	docs = append(docs,
		doc{"nasa", datagen.NASA(60, 2006), datagen.NASASCs()},
		doc{"xmark", datagen.XMark(30, 2006), datagen.XMarkSCs()})
	for _, d := range docs {
		for _, name := range difftest.Schemes {
			sys, err := core.Host(d.doc, d.scs, name, []byte("node-table"))
			if err != nil {
				t.Fatalf("%s: host %s: %v", d.name, name, err)
			}
			if err := checkNodeTable(sys.HostedDB); err != nil {
				t.Fatalf("%s, %s: %v", d.name, name, err)
			}
		}
	}
}

func checkNodeTable(db *wire.HostedDB) error {
	f, facts := server.New(db).NodeTable()
	rf := refBuildForest(db.Table)
	rg := refBuildGuide(db.Table, rf)
	labelsOf := refLabelsOf(db.Table)
	residue := map[dsi.Interval]server.ResidueFact{}
	if db.Residue != nil && db.Residue.Root != nil {
		refDecideResidue(db.Residue.Root, db.ResidueIntervals, residue, new([]string))
	}
	if f.Size() != len(rf.items) || len(facts) != len(rf.items) {
		return fmt.Errorf("%d nodes and %d facts, reference forest has %d", f.Size(), len(facts), len(rf.items))
	}
	g := f.Guide()
	if g == nil || rg == nil {
		return fmt.Errorf("guide %v, reference guide %v", g != nil, rg != nil)
	}
	all := rf.intervals()
	ends := make([]int32, len(rf.items))
	for i := range ends {
		ends[i] = int32(i)
	}
	for i := len(rf.items) - 1; i >= 0; i-- {
		if p := rf.items[i].parent; p >= 0 {
			ends[p] = max(ends[p], ends[i])
		}
	}
	class := make([]int32, f.Size())
	for ci := int32(0); ci < int32(g.NumClasses()); ci++ {
		for _, n := range g.Node(ci).Nodes {
			class[n] = ci
		}
	}
	for label, ivs := range db.Table.ByTag {
		want := slices.Clone(ivs)
		dsi.SortIntervals(want)
		if got := nodeIntervals(f, f.Nodes(label)); !slices.Equal(got, want) {
			return fmt.Errorf("label %s: nodes %v, want %v", label, got, want)
		}
	}
	for i, it := range rf.items {
		n, iv := int32(i), it.iv
		if f.Num(iv) != n {
			return fmt.Errorf("%v: number %d, want %d", iv, f.Num(iv), n)
		}
		if f.Parent(n) != int32(it.parent) {
			return fmt.Errorf("%v: parent %d, want %d", iv, f.Parent(n), it.parent)
		}
		if f.Interval(n) != iv {
			return fmt.Errorf("node %d: interval %v, want %v", n, f.Interval(n), iv)
		}
		if f.End(n) != ends[i] {
			return fmt.Errorf("%v: end %d, want %d", iv, f.End(n), ends[i])
		}
		got, want := slices.Clone(f.Labels(n)), slices.Clone(labelsOf[iv])
		slices.Sort(got)
		slices.Sort(want)
		if !slices.Equal(got, want) {
			return fmt.Errorf("%v: labels %v, want %v", iv, got, want)
		}
		if f.IsLeaf(n) != refIsLeaf(all, iv) {
			return fmt.Errorf("%v: leaf %v, want %v", iv, f.IsLeaf(n), !f.IsLeaf(n))
		}
		if i+1 < len(all) {
			next := all[i+1]
			sib := f.Parent(n) >= 0 && f.Parent(n) == f.Parent(n+1)
			if sib != rf.areSiblings(iv, next) {
				return fmt.Errorf("%v, %v: siblings %v, want %v", iv, next, sib, rf.areSiblings(iv, next))
			}
		}
		if class[n] != rg.classOf[iv] {
			return fmt.Errorf("%v: class %d, want %d", iv, class[n], rg.classOf[iv])
		}
		if !sameFact(facts[n], residue[iv]) {
			return fmt.Errorf("%v: residue fact %+v, want %+v", iv, facts[n], residue[iv])
		}
	}
	if g.NumClasses() != len(rg.nodes) || !slices.Equal(g.Roots(), rg.roots) {
		return fmt.Errorf("%d classes with roots %v, want %d with %v", g.NumClasses(), g.Roots(), len(rg.nodes), rg.roots)
	}
	for ci, want := range rg.nodes {
		got := g.Node(int32(ci))
		if got.Label != want.label || got.Parent != want.parent || !slices.Equal(got.Children, want.children) ||
			!slices.Equal(nodeIntervals(f, got.Nodes), want.intervals) || g.Count(int32(ci)) != len(want.intervals) {
			return fmt.Errorf("class %d: %+v, want %+v", ci, *got, want)
		}
	}
	return nil
}

// refForest is the interval forest as New built it before the node
// table: items in (Lo asc, Hi desc) order with parent indexes, found
// through a map keyed by interval.
type refForest struct {
	items   []refItem
	byStart map[dsi.Interval]int
}

type refItem struct {
	iv     dsi.Interval
	parent int // index into items, -1 for roots
}

func refBuildForest(t *dsi.Table) *refForest {
	var ivs []dsi.Interval
	for _, l := range t.ByTag {
		ivs = append(ivs, l...)
	}
	dsi.SortIntervals(ivs)
	f := &refForest{byStart: make(map[dsi.Interval]int, len(ivs))}
	var stack []int
	for _, iv := range ivs {
		if _, dup := f.byStart[iv]; dup {
			continue // identical interval listed once
		}
		for len(stack) > 0 && !f.items[stack[len(stack)-1]].iv.StrictlyContains(iv) {
			stack = stack[:len(stack)-1]
		}
		parent := -1
		if len(stack) > 0 {
			parent = stack[len(stack)-1]
		}
		f.items = append(f.items, refItem{iv: iv, parent: parent})
		f.byStart[iv] = len(f.items) - 1
		stack = append(stack, len(f.items)-1)
	}
	return f
}

func (f *refForest) parentOf(iv dsi.Interval) (dsi.Interval, bool) {
	i, ok := f.byStart[iv]
	if !ok || f.items[i].parent < 0 {
		return dsi.Interval{}, false
	}
	return f.items[f.items[i].parent].iv, true
}

func (f *refForest) areSiblings(a, b dsi.Interval) bool {
	if refContains(a, b) || refContains(b, a) {
		return false
	}
	pa, oka := f.parentOf(a)
	pb, okb := f.parentOf(b)
	return oka && okb && pa == pb
}

func (f *refForest) intervals() []dsi.Interval {
	out := make([]dsi.Interval, len(f.items))
	for i, it := range f.items {
		out[i] = it.iv
	}
	return out
}

// refIsLeaf is the matcher's former leaf test: no interval of the
// sorted universe lies strictly inside iv.
func refIsLeaf(all []dsi.Interval, iv dsi.Interval) bool {
	return len(refWithin(all, iv)) == 0
}

func nodeIntervals(f *dsi.Forest, nums []int32) []dsi.Interval {
	out := make([]dsi.Interval, len(nums))
	for i, n := range nums {
		out[i] = f.Interval(n)
	}
	return out
}

// refGuide is the guide as BuildGuide built it from the table and the
// forest, with maps from interval to label and to class.
type refGuide struct {
	nodes   []refClass
	roots   []int32
	classOf map[dsi.Interval]int32
}

type refClass struct {
	label     string
	parent    int32
	children  []int32
	intervals []dsi.Interval
}

func refBuildGuide(t *dsi.Table, f *refForest) *refGuide {
	labelOf := make(map[dsi.Interval]string, len(f.items))
	for label, ivs := range t.ByTag {
		for _, iv := range ivs {
			if prev, ok := labelOf[iv]; ok && prev != label {
				return nil
			}
			labelOf[iv] = label
		}
	}
	g := &refGuide{classOf: make(map[dsi.Interval]int32, len(f.items))}
	type classKey struct {
		parent int32
		label  string
	}
	classIdx := map[classKey]int32{}
	for _, it := range f.items {
		label, ok := labelOf[it.iv]
		if !ok {
			return nil
		}
		parent := int32(-1)
		if it.parent >= 0 {
			parent = g.classOf[f.items[it.parent].iv]
		}
		key := classKey{parent: parent, label: label}
		ci, ok := classIdx[key]
		if !ok {
			ci = int32(len(g.nodes))
			g.nodes = append(g.nodes, refClass{label: label, parent: parent})
			classIdx[key] = ci
			if parent < 0 {
				g.roots = append(g.roots, ci)
			} else {
				g.nodes[parent].children = append(g.nodes[parent].children, ci)
			}
		}
		g.nodes[ci].intervals = append(g.nodes[ci].intervals, it.iv)
		g.classOf[it.iv] = ci
	}
	return g
}

// refLabelsOf is the label inversion New kept: interval -> labels.
func refLabelsOf(t *dsi.Table) map[dsi.Interval][]string {
	out := map[dsi.Interval][]string{}
	for label, ivs := range t.ByTag {
		for _, iv := range ivs {
			out[iv] = append(out[iv], label)
		}
	}
	return out
}

// refDecideResidue is New's former residue pass, filling a map keyed
// by interval.
func refDecideResidue(n *xmltree.Node, ivs map[*xmltree.Node]dsi.Interval, out map[dsi.Interval]server.ResidueFact, parts *[]string) (string, bool) {
	var text string
	f := server.ResidueFact{Node: n}
	switch {
	case n.Kind == xmltree.Text:
		return n.Value, false
	case n.Kind == xmltree.Attribute:
		f.Val = xpath.DecodeValue(n.Value)
	case n.Kind == xmltree.Element && n.Tag == wire.PlaceholderTag:
		f.Placeholder, f.HidesBlock = true, true
	default:
		mark := len(*parts)
		for _, c := range n.Children {
			t, hides := refDecideResidue(c, ivs, out, parts)
			f.HidesBlock = f.HidesBlock || hides
			if t != "" && !f.HidesBlock {
				*parts = append(*parts, t)
			}
		}
		if !f.HidesBlock {
			text = strings.Join((*parts)[mark:], "")
			f.Val = xpath.DecodeValue(text)
		}
		*parts = (*parts)[:mark]
	}
	if iv, ok := ivs[n]; ok {
		out[iv] = f
	}
	return text, f.HidesBlock
}

// TestServerNewAllocs bounds the allocations of one boot on a
// 400-dataset NASA document under the opt scheme. Five structures keyed
// by interval (the forest's start map, the guide's label and class
// maps, the label inversion, the residue map) allocated 9 098 times
// per boot; the one node table allocates 1 448, 794 once
// xpath.DecodeValue stopped handing every word starting with i/I/n/N
// to strconv.ParseFloat, and 750 without the interval → number map and
// the block representative index. The bound is that count plus 20 %.
func TestServerNewAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under -race")
	}
	sys, err := core.Host(datagen.NASA(400, 2006), datagen.NASASCs(), core.SchemeOpt, []byte("boot-allocs"))
	if err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(5, func() { server.New(sys.HostedDB) })
	t.Logf("server.New: %.0f allocs", got)
	if bound := 750 * 1.2; got > bound {
		t.Errorf("server.New: %.0f allocs, want <= %.0f", got, bound)
	}
}
