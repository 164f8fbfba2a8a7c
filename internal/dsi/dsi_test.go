package dsi

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/cryptoprim"
	"repro/internal/sc"
	"repro/internal/scheme"
	"repro/internal/xmltree"
)

const hospitalXML = `
<hospital>
  <patient>
    <pname>Betty</pname>
    <SSN>763895</SSN>
    <insurance coverage="1000000"><policy>34221</policy><policy>9983</policy></insurance>
    <treat><disease>diarrhea</disease><doctor>Smith</doctor></treat>
    <age>35</age>
  </patient>
  <patient>
    <pname>Matt</pname>
    <SSN>276543</SSN>
    <insurance coverage="10000"><policy>26544</policy></insurance>
    <treat><disease>leukemia</disease><doctor>Walker</doctor></treat>
    <treat><disease>diarrhea</disease><doctor>Brown</doctor></treat>
    <age>40</age>
  </patient>
</hospital>`

var paperSCs = []string{
	"//insurance",
	"//patient:(/pname, /SSN)",
	"//patient:(/pname, //disease)",
	"//treat:(/disease, /doctor)",
}

func fixture(t *testing.T) (*xmltree.Document, *scheme.Scheme, *cryptoprim.KeySet) {
	t.Helper()
	d, err := xmltree.ParseString(hospitalXML)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	cs, err := sc.ParseAll(paperSCs)
	if err != nil {
		t.Fatalf("scs: %v", err)
	}
	s, err := scheme.Optimal(d, cs)
	if err != nil {
		t.Fatalf("scheme: %v", err)
	}
	return d, s, cryptoprim.MustKeySet("test-master")
}

func TestIntervalOps(t *testing.T) {
	a := Interval{0.1, 0.9}
	b := Interval{0.2, 0.3}
	c := Interval{0.5, 0.6}
	if !a.StrictlyContains(b) || a.StrictlyContains(a) || b.StrictlyContains(c) {
		t.Errorf("StrictlyContains wrong")
	}
	m := Merge([]Interval{b, c})
	if m.Lo != 0.2 || m.Hi != 0.6 {
		t.Errorf("Merge = %v", m)
	}
}

func TestAssignInvariants(t *testing.T) {
	d, _, ks := fixture(t)
	asg := mustAssign(t, d, ks)
	if err := checkAssignment(asg, d); err != nil {
		t.Fatalf("Check: %v", err)
	}
	if got := asg[d.Root]; got != (Interval{0, 1}) {
		t.Errorf("root interval = %v", got)
	}
	// Text nodes must have no interval; attributes must have one.
	for _, n := range d.Nodes() {
		_, ok := asg[n]
		if n.Kind == xmltree.Text && ok {
			t.Errorf("text node has interval")
		}
		if n.Kind != xmltree.Text && !ok {
			t.Errorf("node %s missing interval", n.Path())
		}
	}
}

func TestAssignGapProperties(t *testing.T) {
	// Figure 3's key property: first child's lower bound exceeds the
	// parent's, last child's upper bound is below the parent's, and
	// gaps between adjacent children are positive.
	d, _, ks := fixture(t)
	asg := mustAssign(t, d, ks)
	var check func(n *xmltree.Node)
	check = func(n *xmltree.Node) {
		children := indexableChildren(n)
		if len(children) == 0 {
			return
		}
		piv := asg[n]
		first, last := asg[children[0]], asg[children[len(children)-1]]
		if first.Lo <= piv.Lo {
			t.Errorf("%s: min1 <= parent min", n.Path())
		}
		if last.Hi >= piv.Hi {
			t.Errorf("%s: maxN >= parent max", n.Path())
		}
		for i := 1; i < len(children); i++ {
			if asg[children[i-1]].Hi >= asg[children[i]].Lo {
				t.Errorf("%s: no gap between children %d,%d", n.Path(), i-1, i)
			}
		}
		for _, c := range children {
			check(c)
		}
	}
	check(d.Root)
}

func TestAssignDeterministicPerKey(t *testing.T) {
	d, _, _ := fixture(t)
	k1 := cryptoprim.MustKeySet("k1")
	a1 := mustAssign(t, d, k1)
	a2 := mustAssign(t, d, k1)
	for n, iv := range a1 {
		if a2[n] != iv {
			t.Fatalf("assignment not deterministic at %s", n.Path())
		}
	}
	k2 := cryptoprim.MustKeySet("k2")
	a3 := mustAssign(t, d, k2)
	diff := false
	for n, iv := range a1 {
		if a3[n] != iv {
			diff = true
			break
		}
	}
	if !diff {
		t.Errorf("assignments identical under different keys")
	}
}

func TestBuildMetadataBlocks(t *testing.T) {
	d, s, ks := fixture(t)
	md := mustMetadata(t, d, s.BlockRoots, ks)
	if len(md.BlockReps) != s.NumBlocks() {
		t.Fatalf("block table has %d entries, want %d", len(md.BlockReps), s.NumBlocks())
	}
	for id, root := range s.BlockRoots {
		if md.BlockReps[id] != md.Assignment[root] {
			t.Errorf("rep interval of block %d mismatch", id)
		}
		if md.NodeBlock[root] != id {
			t.Errorf("root of block %d not assigned to it", id)
		}
		for _, desc := range root.Descendants() {
			if md.NodeBlock[desc] != id {
				t.Errorf("descendant %s not in block %d", desc.Path(), id)
			}
		}
	}
	// Plaintext nodes: -1.
	if md.NodeBlock[d.Root] != -1 {
		t.Errorf("root should be plaintext under opt scheme")
	}
}

func TestTagLabelEncryption(t *testing.T) {
	d, s, ks := fixture(t)
	md := mustMetadata(t, d, s.BlockRoots, ks)
	// Unencrypted tags appear in plaintext.
	if len(md.Table.ByTag["patient"]) != 2 {
		t.Errorf("patient intervals = %v", md.Table.ByTag["patient"])
	}
	if len(md.Table.ByTag["hospital"]) != 1 {
		t.Errorf("hospital missing from table")
	}
	// Encrypted tags never appear in plaintext.
	for _, tag := range []string{"insurance", "policy", "@coverage"} {
		if len(md.Table.ByTag[tag]) != 0 {
			t.Errorf("encrypted tag %q leaked in plaintext", tag)
		}
	}
	if got := len(md.Table.ByTag[ks.EncryptTag("insurance")]); got != 2 {
		t.Errorf("encrypted insurance entries = %d, want 2", got)
	}
	// disease is in the optimal cover: encrypted.
	if got := len(md.Table.ByTag[ks.EncryptTag("disease")]); got != 3 {
		t.Errorf("encrypted disease entries = %d, want 3", got)
	}
}

func TestGroupingAdjacentSameBlock(t *testing.T) {
	d, s, ks := fixture(t)
	md := mustMetadata(t, d, s.BlockRoots, ks)
	// Betty's insurance block contains two adjacent policy elements:
	// they must be grouped into ONE interval (§5.1.1).
	entries := md.Table.ByTag[ks.EncryptTag("policy")]
	// 2 policies grouped in block of patient 1 + 1 policy of patient 2 = 2 entries.
	if len(entries) != 2 {
		t.Fatalf("policy entries = %d (%v), want 2 after grouping", len(entries), entries)
	}
	// The grouped interval spans both originals.
	ins1 := d.Root.ElementChildren()[0].ElementChildren()[2]
	p1 := md.Assignment[ins1.ElementChildren()[0]]
	p2 := md.Assignment[ins1.ElementChildren()[1]]
	want := Merge([]Interval{p1, p2})
	found := false
	for _, e := range entries {
		if e == want {
			found = true
		}
	}
	if !found {
		t.Errorf("grouped interval %v not found in %v", want, entries)
	}
}

func TestNoGroupingAcrossBlocks(t *testing.T) {
	d, s, ks := fixture(t)
	md := mustMetadata(t, d, s.BlockRoots, ks)
	// Matt has two adjacent treat elements, each containing a
	// disease block — the two disease nodes are in DIFFERENT blocks
	// and not siblings, so they are never grouped.
	if got := len(md.Table.ByTag[ks.EncryptTag("disease")]); got != 3 {
		t.Errorf("disease entries = %d, want 3 (no cross-block grouping)", got)
	}
	// The two plaintext patient siblings are unencrypted: not grouped.
	if got := len(md.Table.ByTag["patient"]); got != 2 {
		t.Errorf("patient entries = %d, want 2 (plaintext, ungrouped)", got)
	}
}

func TestForestStructure(t *testing.T) {
	d, s, ks := fixture(t)
	md := mustMetadata(t, d, s.BlockRoots, ks)
	f := BuildForest(md.Table)
	if f.Size() != md.Table.NumEntries() {
		t.Errorf("forest size %d != table entries %d", f.Size(), md.Table.NumEntries())
	}
	root := f.Num(md.Assignment[d.Root])
	if root != 0 || f.Parent(root) != -1 || f.End(root) != int32(f.Size())-1 {
		t.Errorf("root is node %d with parent %d and end %d", root, f.Parent(root), f.End(root))
	}
	pat1 := f.Num(md.Assignment[d.Root.ElementChildren()[0]])
	if f.Parent(pat1) != root {
		t.Errorf("parent of patient = %d, want the root", f.Parent(pat1))
	}
	// Grandchild is a descendant but not a child.
	pname1 := f.Num(md.Assignment[d.Root.ElementChildren()[0].ElementChildren()[0]])
	if p := f.Parent(pname1); p == root || p < 0 || pname1 > f.End(root) {
		t.Errorf("parent of pname = %d; want a descendant of the root that is not its child", p)
	}
	// Every subtree is the number range [i, End(i)]: exactly the
	// intervals i strictly contains, and i itself.
	for i := int32(0); i < int32(f.Size()); i++ {
		for j := int32(0); j < int32(f.Size()); j++ {
			inside := i < j && j <= f.End(i)
			if inside != f.Interval(i).StrictlyContains(f.Interval(j)) {
				t.Fatalf("node %d in subtree of %d: %v, intervals %v and %v", j, i, inside, f.Interval(i), f.Interval(j))
			}
		}
	}
}

func TestForestSiblings(t *testing.T) {
	d, s, ks := fixture(t)
	md := mustMetadata(t, d, s.BlockRoots, ks)
	f := BuildForest(md.Table)
	p1 := f.Num(md.Assignment[d.Root.ElementChildren()[0]])
	p2 := f.Num(md.Assignment[d.Root.ElementChildren()[1]])
	if f.Parent(p1) < 0 || f.Parent(p1) != f.Parent(p2) {
		t.Errorf("patients should be siblings")
	}
	if p1 >= p2 {
		t.Errorf("sibling numbers out of document order: %d, %d", p1, p2)
	}
	pname1 := f.Num(md.Assignment[d.Root.ElementChildren()[0].ElementChildren()[0]])
	if f.Parent(p1) == f.Parent(pname1) {
		t.Errorf("parent/child are not siblings")
	}
}

// Property: for random small documents, the DSI assignment always
// satisfies the structural invariants and the forest reconstructs
// exactly the parent relation at table granularity when no grouping
// occurs (all blocks absent).
func TestQuickAssignInvariant(t *testing.T) {
	ks := cryptoprim.MustKeySet("quick")
	f := func(seed uint32) bool {
		d := genDoc(seed)
		asg := mustAssign(t, d, ks)
		if err := checkAssignment(asg, d); err != nil {
			t.Logf("Check: %v", err)
			return false
		}
		md := mustMetadata(t, d, nil, ks)
		forest := BuildForest(md.Table)
		ok := true
		d.Root.Walk(func(n *xmltree.Node) bool {
			if n.Kind == xmltree.Text || n.Parent == nil {
				return true
			}
			if p := forest.Parent(forest.Num(asg[n])); p < 0 || forest.Interval(p) != asg[n.Parent] {
				ok = false
			}
			return true
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func mustAssign(t testing.TB, d *xmltree.Document, ks *cryptoprim.KeySet) Assignment {
	t.Helper()
	asg, err := Assign(d, ks)
	if err != nil {
		t.Fatal(err)
	}
	return asg
}

func mustMetadata(t testing.TB, d *xmltree.Document, roots []*xmltree.Node, ks *cryptoprim.KeySet) *Metadata {
	t.Helper()
	md, err := BuildMetadata(d, roots, ks)
	if err != nil {
		t.Fatal(err)
	}
	return md
}

func genDoc(seed uint32) *xmltree.Document {
	s := seed
	next := func(n uint32) uint32 {
		s = s*1664525 + 1013904223
		return (s >> 16) % n
	}
	tags := []string{"a", "b", "c", "d"}
	var build func(depth int) *xmltree.Node
	build = func(depth int) *xmltree.Node {
		e := xmltree.NewElement(tags[next(uint32(len(tags)))])
		if depth >= 3 || next(4) == 0 {
			e.AppendChild(xmltree.NewText("v"))
			return e
		}
		n := int(next(4)) + 1
		for i := 0; i < n; i++ {
			e.AppendChild(build(depth + 1))
		}
		return e
	}
	return xmltree.NewDocument(build(0))
}

// checkAssignment verifies the two structural invariants the security
// and correctness arguments rest on: (1) every child interval is
// strictly inside its parent's, (2) sibling intervals are pairwise
// disjoint with positive gaps, in document order. It returns the
// first violation found, or nil.
func checkAssignment(asg Assignment, doc *xmltree.Document) error {
	var visit func(n *xmltree.Node) error
	visit = func(n *xmltree.Node) error {
		piv, ok := asg[n]
		if !ok {
			return fmt.Errorf("dsi: node %s has no interval", n.Path())
		}
		if !(0 <= piv.Lo && piv.Lo < piv.Hi && piv.Hi <= 1) {
			return fmt.Errorf("dsi: node %s has invalid interval %v", n.Path(), piv)
		}
		children := indexableChildren(n)
		var prev *Interval
		for _, c := range children {
			civ, ok := asg[c]
			if !ok {
				return fmt.Errorf("dsi: child %s has no interval", c.Path())
			}
			if !piv.StrictlyContains(civ) {
				return fmt.Errorf("dsi: child %s interval %v not strictly inside parent %v", c.Path(), civ, piv)
			}
			if prev != nil && prev.Hi >= civ.Lo {
				return fmt.Errorf("dsi: sibling gap violated at %s: %v then %v", c.Path(), *prev, civ)
			}
			iv := civ
			prev = &iv
			if err := visit(c); err != nil {
				return err
			}
		}
		return nil
	}
	return visit(doc.Root)
}
