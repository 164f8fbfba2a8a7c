package dsi

import (
	"testing"
	"testing/quick"

	"repro/internal/cryptoprim"
)

// familyOf assigns a random document and returns its intervals in
// SortIntervals order — a laminar family, per TestQuickLaminar below,
// which is the precondition Within's binary search rests on.
func familyOf(seed uint32, ks *cryptoprim.KeySet) []Interval {
	asg := Assign(genDoc(seed), ks)
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
		asg := Assign(genDoc(seed), ks)
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
// This is the structural fact Within's binary search and the forest
// construction both depend on.
func TestQuickLaminar(t *testing.T) {
	ks := cryptoprim.MustKeySet("quick-laminar")
	f := func(seed uint32) bool {
		ivs := familyOf(seed, ks)
		for i := 0; i < len(ivs); i++ {
			for j := i + 1; j < len(ivs); j++ {
				a, b := ivs[i], ivs[j]
				if !a.Contains(b) && !b.Contains(a) && !a.Before(b) && !b.Before(a) {
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

// Property: on a Lo-sorted laminar family, Within agrees with the
// naive O(n) strict-containment filter for every context interval in
// the family — the binary search never clips or over-reaches.
func TestQuickWithin(t *testing.T) {
	ks := cryptoprim.MustKeySet("quick-within")
	f := func(seed uint32) bool {
		ivs := familyOf(seed, ks)
		for _, ctx := range ivs {
			got := Within(ivs, ctx)
			var want []Interval
			for _, iv := range ivs {
				if ctx.StrictlyContains(iv) {
					want = append(want, iv)
				}
			}
			if len(got) != len(want) {
				t.Logf("ctx %v: Within %d, naive %d", ctx, len(got), len(want))
				return false
			}
			for i := range got {
				if !got[i].Equal(want[i]) {
					t.Logf("ctx %v: Within[%d]=%v, naive %v", ctx, i, got[i], want[i])
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
