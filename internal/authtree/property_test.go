package authtree

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/cryptoprim"
)

// refProve and refVerifyMulti are Prove and VerifyMulti as they stood
// when every tree level was a map[int]Digest with its keys re-sorted:
// the reference the slice-based walk is held to — same sibling bytes in
// the same order out of Prove, same verdict out of VerifyMulti on every
// honest and every damaged proof below.
func (t *Tree) refProve(indices []int) ([]Digest, error) {
	n := t.NumLeaves()
	known := map[int]bool{}
	for _, idx := range indices {
		if idx < 0 || idx >= n {
			return nil, fmt.Errorf("authtree: leaf index %d out of range [0,%d)", idx, n)
		}
		known[idx] = true
	}
	if len(known) == 0 {
		return nil, nil
	}
	var siblings []Digest
	for lvl := 0; lvl < len(t.levels)-1; lvl++ {
		width := len(t.levels[lvl])
		idxs := sortedKeys(known)
		next := map[int]bool{}
		for i := 0; i < len(idxs); i++ {
			idx := idxs[i]
			sib := idx ^ 1
			if sib >= width {
				next[idx/2] = true // odd node promoted
				continue
			}
			if known[sib] {
				// Both halves known: handled once, at the left index.
				if idx&1 == 1 && known[idx-1] {
					continue
				}
			} else {
				siblings = append(siblings, t.levels[lvl][sib])
			}
			next[idx/2] = true
		}
		known = next
	}
	return siblings, nil
}

func refVerifyMulti(root Digest, numLeaves int, items []LeafItem, siblings []Digest) error {
	if numLeaves <= 0 {
		return fmt.Errorf("%w: empty tree cannot prove membership", ErrTampered)
	}
	known := map[int]Digest{}
	for _, it := range items {
		if it.Index < 0 || it.Index >= numLeaves {
			return fmt.Errorf("%w: leaf index %d out of range [0,%d)", ErrTampered, it.Index, numLeaves)
		}
		if d, dup := known[it.Index]; dup && d != it.Digest {
			return fmt.Errorf("%w: conflicting digests for leaf %d", ErrTampered, it.Index)
		}
		known[it.Index] = it.Digest
	}
	if len(known) == 0 {
		return fmt.Errorf("%w: proof covers no leaves", ErrTampered)
	}
	width := numLeaves
	pos := 0
	for width > 1 {
		idxs := make([]int, 0, len(known))
		for idx := range known {
			idxs = append(idxs, idx)
		}
		sort.Ints(idxs)
		next := map[int]Digest{}
		for i := 0; i < len(idxs); i++ {
			idx := idxs[i]
			sib := idx ^ 1
			if sib >= width {
				next[idx/2] = known[idx]
				continue
			}
			var l, r Digest
			if sd, ok := known[sib]; ok {
				if idx&1 == 1 {
					continue // handled at the left index
				}
				l, r = known[idx], sd
			} else {
				if pos >= len(siblings) {
					return fmt.Errorf("%w: proof too short", ErrTampered)
				}
				sd := siblings[pos]
				pos++
				if idx&1 == 0 {
					l, r = known[idx], sd
				} else {
					l, r = sd, known[idx]
				}
			}
			next[idx/2] = nodeHash(l, r)
		}
		known = next
		width = (width + 1) / 2
	}
	if pos != len(siblings) {
		return fmt.Errorf("%w: %d unused sibling digests", ErrTampered, len(siblings)-pos)
	}
	if got := known[0]; got != root {
		return fmt.Errorf("%w: recomputed root %x does not match committed root %x", ErrTampered, got[:8], root[:8])
	}
	return nil
}

func sortedKeys(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// randomProof draws a tree of n leaves and a random subset of them
// (with repeats, in random order) and returns the honest proof.
func randomProof(t *testing.T, rng *rand.Rand, n int) (*Tree, []LeafItem, []Digest) {
	t.Helper()
	tree := NewFromData(leafData(n))
	k := 1 + rng.Intn(min(n, 24)+2)
	idxs := make([]int, k)
	items := make([]LeafItem, k)
	for i := range idxs {
		idxs[i] = rng.Intn(n)
		items[i] = LeafItem{Index: idxs[i], Digest: tree.Leaf(idxs[i])}
	}
	sib, err := tree.Prove(idxs)
	if err != nil {
		t.Fatalf("n=%d idxs=%v: prove: %v", n, idxs, err)
	}
	want, err := tree.refProve(idxs)
	if err != nil || !reflect.DeepEqual(sib, want) {
		t.Fatalf("n=%d idxs=%v: Prove yields %d siblings, the reference %d (err %v), or they differ", n, idxs, len(sib), len(want), err)
	}
	return tree, items, sib
}

// checkVerdict runs both verifiers and requires the same verdict; with
// reject set, that verdict must be ErrTampered.
func checkVerdict(t *testing.T, what string, root Digest, n int, items []LeafItem, sib []Digest, reject bool) {
	t.Helper()
	before := append([]LeafItem(nil), items...)
	got, want := VerifyMulti(root, n, items, sib), refVerifyMulti(root, n, items, sib)
	if (got == nil) != (want == nil) {
		t.Fatalf("%s (n=%d, %d items, %d siblings): VerifyMulti says %v, the reference %v", what, n, len(items), len(sib), got, want)
	}
	if got != nil && !errors.Is(got, ErrTampered) {
		t.Fatalf("%s: rejection %v is not ErrTampered", what, got)
	}
	if reject && got == nil {
		t.Fatalf("%s (n=%d, %d items, %d siblings): accepted", what, n, len(items), len(sib))
	}
	if !reject && got != nil {
		t.Fatalf("%s (n=%d, %d items, %d siblings): rejected: %v", what, n, len(items), len(sib), got)
	}
	if !reflect.DeepEqual(items, before) {
		t.Fatalf("%s: VerifyMulti modified its items", what)
	}
}

func levels(n int) int {
	l := 1
	for ; n > 1; n = (n + 1) / 2 {
		l++
	}
	return l
}

// TestProveVerifyProperties: over random tree sizes (one leaf, powers
// of two, odd widths at every level) and random leaf subsets, the
// honest proof is accepted and every way of damaging it — a flipped
// leaf or sibling digest, a dropped, extra or reordered sibling, a
// leaf claimed twice with different digests, a wrong tree size — is
// rejected with ErrTampered, each with the reference's verdict.
func TestProveVerifyProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	sizes := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 31, 33, 63, 100, 255, 256, 257, 1000, 1023, 1025}
	for trial := 0; trial < 400; trial++ {
		n := sizes[trial%len(sizes)]
		if trial >= 2*len(sizes) {
			n = 1 + rng.Intn(1200)
		}
		tree, items, sib := randomProof(t, rng, n)
		root := tree.Root()
		checkVerdict(t, "honest proof", root, n, items, sib, false)

		flipped := append([]LeafItem(nil), items...)
		flipped[rng.Intn(len(flipped))].Digest[rng.Intn(DigestSize)] ^= 1 << rng.Intn(8)
		checkVerdict(t, "flipped leaf digest", root, n, flipped, sib, true)

		conflict := append(append([]LeafItem(nil), items...), items[rng.Intn(len(items))])
		checkVerdict(t, "leaf claimed twice, same digest", root, n, conflict, sib, false)
		conflict[len(conflict)-1].Digest[0] ^= 0x80
		checkVerdict(t, "leaf claimed twice, conflicting digests", root, n, conflict, sib, true)

		checkVerdict(t, "extra sibling", root, n, items, append(append([]Digest(nil), sib...), Digest{1}), true)
		if len(sib) > 0 {
			i := rng.Intn(len(sib))
			bad := append([]Digest(nil), sib...)
			bad[i][rng.Intn(DigestSize)] ^= 1 << rng.Intn(8)
			checkVerdict(t, "flipped sibling digest", root, n, items, bad, true)
			checkVerdict(t, "dropped sibling", root, n, items, append(append([]Digest(nil), sib[:i]...), sib[i+1:]...), true)
		}
		if len(sib) > 1 {
			i := rng.Intn(len(sib) - 1)
			bad := append([]Digest(nil), sib...)
			bad[i], bad[i+1] = bad[i+1], bad[i]
			checkVerdict(t, "reordered siblings", root, n, items, bad, true)
		}

		// A wrong leaf count that changes the tree's height cannot
		// reproduce the root; one that only moves the right edge may
		// leave these leaves' paths as they were (7 for 8 does, for
		// leaf 0), so there the reference's verdict is the requirement.
		for _, wrong := range []int{n - 1, n + 1, 2*n + 1} {
			if wrong <= 0 {
				continue
			}
			got, want := VerifyMulti(root, wrong, items, sib), refVerifyMulti(root, wrong, items, sib)
			if (got == nil) != (want == nil) || (got != nil && !errors.Is(got, ErrTampered)) {
				t.Fatalf("n=%d verified as %d leaves: %v, the reference %v", n, wrong, got, want)
			}
			if levels(wrong) != levels(n) && got == nil {
				t.Fatalf("n=%d verified as %d leaves (another height): accepted", n, wrong)
			}
		}
	}
}

// cloneLevels deep-copies a tree's levels, to compare against later.
func cloneLevels(t *Tree) [][]Digest {
	out := make([][]Digest, len(t.levels))
	for i, level := range t.levels {
		out[i] = append([]Digest(nil), level...)
	}
	return out
}

func randomDigest(rng *rand.Rand) Digest {
	var d Digest
	rng.Read(d[:])
	return d
}

// TestWithProperties: over random tree sizes (one leaf, 2^k ± 1 and
// random widths up to 600) and random substitutions (empty, with
// repeated indices, in random order), With equals New over the
// substituted leaves at every level, leaves its receiver as it was,
// changes exactly one node per level for a single leaf, and refuses an
// index out of range.
func TestWithProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	sizes := []int{1, 2, 3, 5, 7, 9, 15, 17, 31, 33, 63, 65, 127, 129, 255, 257, 511, 513}
	for trial := 0; trial < 300; trial++ {
		n := sizes[trial%len(sizes)]
		if trial >= 2*len(sizes) {
			n = 1 + rng.Intn(600)
		}
		tree := NewFromData(leafData(n))
		before := cloneLevels(tree)

		var items []LeafItem // every seventh trial: the empty substitution
		if trial%7 != 0 {
			for range 1 + rng.Intn(min(n, 20)) {
				items = append(items, LeafItem{Index: rng.Intn(n), Digest: randomDigest(rng)})
			}
			if rng.Intn(2) == 0 {
				// The same index again, with another digest: it must win.
				items = append(items, LeafItem{Index: items[0].Index, Digest: randomDigest(rng)})
			}
		}
		got, err := tree.With(items)
		if err != nil {
			t.Fatalf("n=%d, %d items: %v", n, len(items), err)
		}
		leaves := append([]Digest(nil), before[0]...)
		for _, it := range items {
			leaves[it.Index] = it.Digest
		}
		if want := New(leaves); !reflect.DeepEqual(got.levels, want.levels) {
			t.Fatalf("n=%d, %d items: With differs from New over the substituted leaves", n, len(items))
		}
		if !reflect.DeepEqual(tree.levels, before) {
			t.Fatalf("n=%d, %d items: With modified its receiver", n, len(items))
		}

		idx := rng.Intn(n)
		one, err := tree.With([]LeafItem{{Index: idx, Digest: randomDigest(rng)}})
		if err != nil {
			t.Fatal(err)
		}
		if one.Root() == tree.Root() {
			t.Fatalf("n=%d: changed leaf %d, same root", n, idx)
		}
		for lvl, level := range one.levels {
			diff := 0
			for i := range level {
				if level[i] != before[lvl][i] {
					diff++
				}
			}
			if diff != 1 {
				t.Fatalf("n=%d leaf %d: level %d differs in %d nodes, want 1", n, idx, lvl, diff)
			}
		}

		for _, bad := range []int{-1, n, n + 1 + rng.Intn(n)} {
			ok := []LeafItem{{Index: rng.Intn(n), Digest: randomDigest(rng)}}
			if _, err := tree.With(append(ok, LeafItem{Index: bad})); err == nil {
				t.Fatalf("n=%d: index %d accepted", n, bad)
			}
		}
		if !reflect.DeepEqual(tree.levels, before) {
			t.Fatalf("n=%d: a With call modified its receiver", n)
		}
	}
}

var digestSink Digest

// TestVerifyMultiAllocations pins what the bulk answer path pays per
// proof: a 1 500-item multiproof verifies in a constant handful of
// allocations (the one sorted copy), and the node hash in none.
func TestVerifyMultiAllocations(t *testing.T) {
	const n, k = 4000, 1500
	tree := NewFromData(leafData(n))
	rng := rand.New(rand.NewSource(1500))
	idxs := rng.Perm(n)[:k]
	items := make([]LeafItem, k)
	for i, idx := range idxs {
		items[i] = LeafItem{Index: idx, Digest: tree.Leaf(idx)}
	}
	sib, err := tree.Prove(idxs)
	if err != nil {
		t.Fatal(err)
	}
	root := tree.Root()
	if allocs := testing.AllocsPerRun(20, func() {
		if err := VerifyMulti(root, n, items, sib); err != nil {
			t.Fatal(err)
		}
	}); allocs > 4 {
		t.Errorf("VerifyMulti over %d items: %.0f allocations, want <= 4", k, allocs)
	}
	a, b := tree.Leaf(0), tree.Leaf(1)
	if allocs := testing.AllocsPerRun(100, func() { digestSink = cryptoprim.MerkleNodeHash(a, b) }); allocs != 0 {
		t.Errorf("MerkleNodeHash: %.0f allocations, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { digestSink = LeafHash(a[:]) }); allocs != 0 {
		t.Errorf("LeafHash of a short leaf: %.0f allocations, want 0", allocs)
	}
}
