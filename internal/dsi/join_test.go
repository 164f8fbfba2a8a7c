package dsi

import (
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/cryptoprim"
)

// numbersInside is the brute-force descendant relation the number
// joins must reproduce: the nodes of the ascending list whose
// intervals some context's interval strictly contains.
func numbersInside(f *Forest, ctxs, list []int32) []int32 {
	var out []int32
	for _, c := range list {
		for _, ctx := range ctxs {
			if f.Interval(ctx).StrictlyContains(f.Interval(c)) {
				out = append(out, c)
				break
			}
		}
	}
	return out
}

func TestOutermost(t *testing.T) {
	f := BuildForest(&Table{ByTag: map[string][]Interval{"x": {
		{Lo: 0.1, Hi: 0.9},
		{Lo: 0.2, Hi: 0.3}, // inside first
		{Lo: 0.4, Hi: 0.5}, // inside first
		{Lo: 0.91, Hi: 0.95},
	}}})
	out := f.Outermost([]int32{0, 0, 1, 2, 3})
	if !slices.Equal(out, []int32{0, 3}) {
		t.Errorf("Outermost = %v", out)
	}
	if got := f.Outermost(nil); len(got) != 0 {
		t.Errorf("Outermost(nil) = %v", got)
	}
}

func TestDescendantJoinMatchesPerContext(t *testing.T) {
	d := genDoc(7)
	ks := cryptoprim.MustKeySet("join")
	md := mustMetadata(t, d, nil, ks)
	f := BuildForest(md.Table)
	// Contexts: every node of one tag; candidates: all nodes.
	for tag := range md.Table.ByTag {
		ctxs := f.Nodes(tag)
		got := f.JoinDescendants(nil, ctxs, f.All())
		if want := numbersInside(f, ctxs, f.All()); !slices.Equal(got, want) {
			t.Fatalf("tag %s: join %v, reference %v", tag, got, want)
		}
	}
}

func TestChildJoinMatchesForest(t *testing.T) {
	d := genDoc(9)
	ks := cryptoprim.MustKeySet("join2")
	md := mustMetadata(t, d, nil, ks)
	f := BuildForest(md.Table)
	// The reference parent is the tightest strictly containing
	// interval, found by scanning every node.
	parentOf := func(c int32) int32 {
		p := int32(-1)
		for i := int32(0); i < int32(f.Size()); i++ {
			if f.Interval(i).StrictlyContains(f.Interval(c)) && (p < 0 || f.Interval(p).StrictlyContains(f.Interval(i))) {
				p = i
			}
		}
		return p
	}
	for tag := range md.Table.ByTag {
		ctxs := f.Nodes(tag)
		got := f.JoinChildren(nil, ctxs, f.All())
		var want []int32
		for _, c := range f.All() {
			if slices.Contains(ctxs, parentOf(c)) {
				want = append(want, c)
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("tag %s: child join %v, reference %v", tag, got, want)
		}
	}
}

// Property: on random documents, JoinDescendants equals the
// brute-force containment filter for random context subsets, and
// JoinChildren keeps exactly the members whose parent is a context.
func TestQuickDescendantJoin(t *testing.T) {
	ks := cryptoprim.MustKeySet("join-quick")
	check := func(seed uint32, pick uint8) bool {
		f := BuildForest(mustMetadata(t, genDoc(seed), nil, ks).Table)
		var ctxs []int32
		for _, n := range f.All() {
			if (uint32(pick)+uint32(n))%3 == 0 {
				ctxs = append(ctxs, n)
			}
		}
		if got, want := f.JoinDescendants(nil, ctxs, f.All()), numbersInside(f, ctxs, f.All()); !slices.Equal(got, want) {
			t.Logf("seed %d: descendant join %v, reference %v", seed, got, want)
			return false
		}
		var want []int32
		for _, c := range f.All() {
			if slices.Contains(ctxs, f.Parent(c)) {
				want = append(want, c)
			}
		}
		if got := f.JoinChildren(nil, ctxs, f.All()); !slices.Equal(got, want) {
			t.Logf("seed %d: child join %v, reference %v", seed, got, want)
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
