package dsi

import (
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/cryptoprim"
)

// familyOf assigns a random document and returns its intervals in
// SortIntervals order — a laminar family, per TestQuickLaminar below,
// which is the precondition the forest's number ranges rest on.
func familyOf(t *testing.T, seed uint32, ks *cryptoprim.KeySet) []Interval {
	asg := mustAssign(t, genDoc(seed), ks)
	ivs := make([]Interval, 0, len(asg))
	for _, iv := range asg {
		ivs = append(ivs, iv)
	}
	SortIntervals(ivs)
	return ivs
}

// Property: SortIntervals yields (Lo asc, Hi desc) order — containers
// before their contents — and is a permutation of its input.
func TestQuickSortIntervals(t *testing.T) {
	ks := cryptoprim.MustKeySet("quick-sort")
	f := func(seed uint32) bool {
		asg := mustAssign(t, genDoc(seed), ks)
		var in []Interval
		for _, iv := range asg {
			in = append(in, iv) // map iteration: a fresh permutation each run
		}
		counts := map[Interval]int{}
		for _, iv := range in {
			counts[iv]++
		}
		SortIntervals(in)
		for i := 1; i < len(in); i++ {
			a, b := in[i-1], in[i]
			if a.Lo > b.Lo || (a.Lo == b.Lo && a.Hi < b.Hi) {
				t.Logf("order violated at %d: %v then %v", i, a, b)
				return false
			}
		}
		for _, iv := range in {
			counts[iv]--
		}
		for iv, n := range counts {
			if n != 0 {
				t.Logf("multiset changed: %v count %d", iv, n)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: assigned intervals form a laminar family — every pair is
// related (one contains the other) or strictly disjoint with a gap.
// This is the structural fact the forest construction and its number
// ranges depend on.
func TestQuickLaminar(t *testing.T) {
	ks := cryptoprim.MustKeySet("quick-laminar")
	f := func(seed uint32) bool {
		ivs := familyOf(t, seed, ks)
		for i := 0; i < len(ivs); i++ {
			for j := i + 1; j < len(ivs); j++ {
				a, b := ivs[i], ivs[j]
				nested := (a.Lo <= b.Lo && b.Hi <= a.Hi) || (b.Lo <= a.Lo && a.Hi <= b.Hi)
				if !nested && a.Hi >= b.Lo && b.Hi >= a.Lo {
					t.Logf("non-laminar pair: %v, %v", a, b)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: on a laminar family, Descendants agrees with the naive
// O(n) strict-containment filter for every context node, over the
// whole node list and over one label's list — the binary search on
// numbers never clips or over-reaches.
func TestQuickWithin(t *testing.T) {
	ks := cryptoprim.MustKeySet("quick-within")
	f := func(seed uint32) bool {
		ivs := familyOf(t, seed, ks)
		fr := BuildForest(&Table{ByTag: map[string][]Interval{"x": ivs[:len(ivs)/2], "y": ivs[len(ivs)/2:]}})
		for ctx := int32(0); ctx < int32(fr.Size()); ctx++ {
			for _, list := range [][]int32{fr.All(), fr.Nodes("y")} {
				got := fr.Descendants(list, ctx)
				var want []int32
				for _, n := range list {
					if fr.Interval(ctx).StrictlyContains(fr.Interval(n)) {
						want = append(want, n)
					}
				}
				if !slices.Equal(got, want) {
					t.Logf("ctx %v: Descendants %v, naive %v", fr.Interval(ctx), got, want)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
