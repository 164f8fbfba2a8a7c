package dsi

import (
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/cryptoprim"
)

func TestOutermost(t *testing.T) {
	ivs := []Interval{
		{Lo: 0.1, Hi: 0.9},
		{Lo: 0.2, Hi: 0.3}, // inside first
		{Lo: 0.4, Hi: 0.5}, // inside first
		{Lo: 0.91, Hi: 0.95},
	}
	out := Outermost(ivs)
	if len(out) != 2 || out[0] != ivs[0] || out[1] != ivs[3] {
		t.Errorf("Outermost = %v", out)
	}
	if got := Outermost(nil); got != nil {
		t.Errorf("Outermost(nil) = %v", got)
	}
}

func TestDescendantJoinMatchesPerContext(t *testing.T) {
	d := genDoc(7)
	ks := cryptoprim.MustKeySet("join")
	md := BuildMetadata(d, nil, ks)
	all := BuildForest(md.Table).Intervals()
	// Contexts: every interval of one tag; candidates: all intervals.
	for tag := range md.Table.ByTag {
		ctxs := md.Table.Lookup(tag)
		got := DescendantJoin(ctxs, all)
		// Reference: per-context Within, deduped in order.
		seen := map[Interval]bool{}
		var want []Interval
		for _, c := range all {
			for _, ctx := range ctxs {
				if ctx.StrictlyContains(c) && !seen[c] {
					seen[c] = true
					want = append(want, c)
				}
			}
		}
		if len(got) != len(want) {
			t.Fatalf("tag %s: join %d vs reference %d", tag, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("tag %s: element %d differs", tag, i)
			}
		}
	}
}

func TestChildJoinMatchesForest(t *testing.T) {
	d := genDoc(9)
	ks := cryptoprim.MustKeySet("join2")
	md := BuildMetadata(d, nil, ks)
	f := BuildForest(md.Table)
	all := f.Intervals()
	for tag := range md.Table.ByTag {
		ctxs := md.Table.Lookup(tag)
		got := ChildJoin(f, ctxs, all)
		var want []Interval
		for _, c := range all {
			if p, ok := f.ParentOf(c); ok {
				for _, ctx := range ctxs {
					if p.Equal(ctx) {
						want = append(want, c)
						break
					}
				}
			}
		}
		if len(got) != len(want) {
			t.Fatalf("tag %s: child join %d vs reference %d", tag, len(got), len(want))
		}
	}
}

// Property: on random documents, DescendantJoin equals the
// brute-force containment filter for random context subsets.
func TestQuickDescendantJoin(t *testing.T) {
	ks := cryptoprim.MustKeySet("join-quick")
	f := func(seed uint32, pick uint8) bool {
		d := genDoc(seed)
		md := BuildMetadata(d, nil, ks)
		all := BuildForest(md.Table).Intervals()
		if len(all) == 0 {
			return true
		}
		// Random sorted context subset.
		var ctxs []Interval
		for i, iv := range all {
			if (uint32(pick)+uint32(i))%3 == 0 {
				ctxs = append(ctxs, iv)
			}
		}
		got := DescendantJoin(ctxs, all)
		count := 0
		for _, c := range all {
			for _, ctx := range ctxs {
				if ctx.StrictlyContains(c) {
					count++
					break
				}
			}
		}
		sorted := slices.Clone(got)
		SortIntervals(sorted)
		return len(got) == count && slices.Equal(got, sorted)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
