package dsi

import (
	"slices"
	"testing"
)

// TestBuildGuideClasses pins the path-class semantics on a hand-built
// laminar family: same (parent class, label) pairs merge into one
// class, the same label under different parents splits, and the
// parent pointers mirror the forest.
func TestBuildGuideClasses(t *testing.T) {
	a := Interval{Lo: 0, Hi: 1}
	b1 := Interval{Lo: 0.1, Hi: 0.2}
	b2 := Interval{Lo: 0.3, Hi: 0.4}
	c1 := Interval{Lo: 0.12, Hi: 0.15} // c under first b
	c2 := Interval{Lo: 0.32, Hi: 0.35} // c under second b — same class as c1 (same parent CLASS)
	d := Interval{Lo: 0.5, Hi: 0.6}    // c directly under a — different parent class, own class
	tb := &Table{ByTag: map[string][]Interval{
		"a": {a},
		"b": {b1, b2},
		"c": {c1, c2, d},
	}}
	f := BuildForest(tb)
	g := f.Guide()
	if g == nil {
		t.Fatal("BuildForest built no guide for a clean table")
	}
	classOf := func(iv Interval) int32 {
		for ci := int32(0); ci < int32(g.NumClasses()); ci++ {
			if slices.Contains(g.Node(ci).Nodes, f.Num(iv)) {
				return ci
			}
		}
		return -1
	}
	if g.NumClasses() != 4 {
		t.Fatalf("NumClasses = %d, want 4 (a, a/b, a/b/c, a/c)", g.NumClasses())
	}
	if len(g.Roots()) != 1 || g.Node(g.Roots()[0]).Label != "a" {
		t.Fatalf("roots = %v", g.Roots())
	}
	root := g.Roots()[0]
	if classOf(b1) != classOf(b2) {
		t.Fatal("same label under the same parent class split into two classes")
	}
	bClass := classOf(b1)
	if g.Count(bClass) != 2 {
		t.Fatalf("b class counts %d intervals, want 2", g.Count(bClass))
	}
	if g.Node(bClass).Parent != root {
		t.Fatalf("b class parent = %d, want root %d", g.Node(bClass).Parent, root)
	}
	if classOf(c1) != classOf(c2) {
		t.Fatal("c under the two b's must share one class (same parent class)")
	}
	if classOf(d) == classOf(c1) {
		t.Fatal("c under a and c under b must be distinct classes")
	}
	if g.Node(classOf(c1)).Parent != bClass {
		t.Fatal("a/b/c class must hang off the b class")
	}
	if g.Node(classOf(d)).Parent != root {
		t.Fatal("a/c class must hang off the root class")
	}
}

// TestBuildGuideRejectsMultiLabel: an interval filed under two table
// labels breaks the single-class invariant; the builder must build no
// guide (callers then run pairwise, never over a wrong synopsis), and
// the node table must still list both labels.
func TestBuildGuideRejectsMultiLabel(t *testing.T) {
	iv := Interval{Lo: 0.2, Hi: 0.4}
	tb := &Table{ByTag: map[string][]Interval{"x": {iv}, "y": {iv}}}
	f := BuildForest(tb)
	if f.Guide() != nil {
		t.Fatal("multi-label interval must disable the synopsis")
	}
	if got := f.Labels(f.Num(iv)); len(got) != 2 || got[0] != "x" || got[1] != "y" {
		t.Fatalf("labels = %v, want [x y]", got)
	}
}
