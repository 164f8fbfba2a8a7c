package server

import (
	"testing"
	"testing/quick"

	"repro/internal/dsi"
)

// genIntervals derives a small interval list with deliberate
// duplicates from one seed (an LCG, like the dsi package's quick
// tests), so dedupeSorted sees both repeats and distinct values.
func genIntervals(seed uint32) []dsi.Interval {
	s := seed
	next := func(n uint32) uint32 {
		s = s*1664525 + 1013904223
		return (s >> 16) % n
	}
	n := int(next(40))
	out := make([]dsi.Interval, 0, n)
	for i := 0; i < n; i++ {
		lo := float64(next(16)) / 32
		hi := lo + float64(next(8)+1)/32
		out = append(out, dsi.Interval{Lo: lo, Hi: hi})
	}
	return out
}

// Properties of dedupeSorted, the compaction every matcher step's
// per-context results pass through: the output is in SortIntervals
// order with no adjacent (hence, given the order, no) duplicates, it
// has exactly the input's distinct values, and applying it twice
// changes nothing — a step's result rests on this being a pure
// function of the input's value set, whatever order the contexts
// produced it in.
func TestDedupeSortedProperties(t *testing.T) {
	f := func(seed uint32) bool {
		in := genIntervals(seed)
		distinct := map[dsi.Interval]bool{}
		for _, iv := range in {
			distinct[iv] = true
		}
		out := dedupeSorted(append([]dsi.Interval(nil), in...))
		if len(out) != len(distinct) {
			t.Logf("seed %d: %d out, %d distinct", seed, len(out), len(distinct))
			return false
		}
		for i, iv := range out {
			if !distinct[iv] {
				t.Logf("seed %d: invented interval %v", seed, iv)
				return false
			}
			if i > 0 {
				prev := out[i-1]
				if prev.Lo > iv.Lo || (prev.Lo == iv.Lo && prev.Hi < iv.Hi) {
					t.Logf("seed %d: order violated: %v then %v", seed, prev, iv)
					return false
				}
				if prev.Equal(iv) {
					t.Logf("seed %d: duplicate survived: %v", seed, iv)
					return false
				}
			}
		}
		again := dedupeSorted(append([]dsi.Interval(nil), out...))
		if len(again) != len(out) {
			t.Logf("seed %d: not idempotent: %d then %d", seed, len(out), len(again))
			return false
		}
		for i := range again {
			if !again[i].Equal(out[i]) {
				t.Logf("seed %d: second pass changed element %d", seed, i)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
