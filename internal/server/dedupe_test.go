package server

import (
	"slices"
	"testing"
	"testing/quick"
)

// genNumbers derives a small node-number list with deliberate
// duplicates from one seed (an LCG, like the dsi package's quick
// tests), so dedupeSorted sees both repeats and distinct values.
func genNumbers(seed uint32) []int32 {
	s := seed
	next := func(n uint32) uint32 {
		s = s*1664525 + 1013904223
		return (s >> 16) % n
	}
	n := int(next(40))
	out := make([]int32, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, int32(next(24)))
	}
	return out
}

// Properties of dedupeSorted, the compaction every matcher step's
// results pass through: the output is strictly ascending (document
// order, no duplicates), it has exactly the input's distinct values,
// and applying it twice changes nothing — a step's result rests on
// this being a pure function of the input's value set, whatever order
// the contexts produced it in.
func TestDedupeSortedProperties(t *testing.T) {
	f := func(seed uint32) bool {
		in := genNumbers(seed)
		distinct := map[int32]bool{}
		for _, n := range in {
			distinct[n] = true
		}
		out := dedupeSorted(slices.Clone(in))
		if len(out) != len(distinct) {
			t.Logf("seed %d: %d out, %d distinct", seed, len(out), len(distinct))
			return false
		}
		for i, n := range out {
			if !distinct[n] {
				t.Logf("seed %d: invented number %d", seed, n)
				return false
			}
			if i > 0 && out[i-1] >= n {
				t.Logf("seed %d: not strictly ascending: %d then %d", seed, out[i-1], n)
				return false
			}
		}
		if again := dedupeSorted(slices.Clone(out)); !slices.Equal(again, out) {
			t.Logf("seed %d: not idempotent: %v then %v", seed, out, again)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
