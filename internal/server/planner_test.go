package server

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/btree"
	"repro/internal/wire"
	"repro/internal/xpath"
)

// TestSynopsisIncrementalEqualsRebuild is the value-index property
// test: after every randomized batch of band-closed index updates, the
// incrementally advanced bands must equal bands built from scratch over
// the committed entry list, every band the batch did not drop must
// share its backing array with the previous generation, and a snapshot
// pinned before the updates must keep its original index untouched
// (MVCC).
func TestSynopsisIncrementalEqualsRebuild(t *testing.T) {
	_, s := boot(t, "opt")
	r := rand.New(rand.NewSource(7))
	pinned := s.current()
	pinnedEntries := pinned.index.Entries()

	for round := 0; round < 8; round++ {
		prev := s.current().index
		entries := prev.Entries()
		if len(entries) == 0 {
			break
		}
		var batch []*wire.Update
		dropped := map[uint8]bool{}
		for i := 0; i < 1+r.Intn(3); i++ {
			band := btree.Band(entries[r.Intn(len(entries))].Key)
			dropped[band] = true
			u := &wire.Update{DropBands: []uint8{band}}
			for _, e := range entries {
				if btree.Band(e.Key) != band || r.Intn(3) == 0 {
					continue // random deletions within the reissued band
				}
				key := uint64(band)<<56 | (r.Uint64() & (1<<56 - 1))
				u.AddEntries = append(u.AddEntries, btree.Entry{Key: key, BlockID: e.BlockID})
			}
			batch = append(batch, u)
		}
		if err := s.ApplyUpdateBatch(batch); err != nil {
			t.Fatalf("round %d: apply batch: %v", round, err)
		}
		got := s.current().index
		want := btree.NewIndex(s.CurrentDB().IndexEntries)
		if got.Len() != want.Len() {
			t.Fatalf("round %d: incremental index holds %d entries, rebuild %d", round, got.Len(), want.Len())
		}
		for b := 0; b < btree.NumBands; b++ {
			run := got.Band(uint8(b))
			if !slices.Equal(run, want.Band(uint8(b))) {
				t.Fatalf("round %d: band %d diverged from rebuild", round, b)
			}
			if old := prev.Band(uint8(b)); !dropped[uint8(b)] && len(old) > 0 && &old[0] != &run[0] {
				t.Fatalf("round %d: untouched band %d was copied, not shared", round, b)
			}
		}
		if syn := s.Synopsis(); syn.IndexEntries != want.Len() {
			t.Fatalf("round %d: Synopsis reports %d entries, index has %d",
				round, syn.IndexEntries, want.Len())
		}
	}
	if !slices.Equal(pinned.index.Entries(), pinnedEntries) {
		t.Fatal("pinned snapshot's index was mutated by later updates")
	}
}

// TestGuideInvariants checks the structural half of the synopsis
// against the forest it summarizes: every forest node is in exactly
// one class, member lists are ascending, and each member's
// forest parent belongs to the class's parent class (the exactness
// the guide promises and the twig transitions rely on).
func TestGuideInvariants(t *testing.T) {
	_, s := boot(t, "opt")
	sn := s.current()
	g := sn.st.guide
	if g == nil {
		t.Fatal("boot produced no guide")
	}
	f := sn.st.forest
	class := make([]int32, f.Size())
	for i := range class {
		class[i] = -1
	}
	for ci := int32(0); ci < int32(g.NumClasses()); ci++ {
		for i, n := range g.Node(ci).Nodes {
			if i > 0 && g.Node(ci).Nodes[i-1] >= n {
				t.Fatalf("class %d member list not ascending", ci)
			}
			if class[n] >= 0 {
				t.Fatalf("node %d is in classes %d and %d", n, class[n], ci)
			}
			class[n] = ci
		}
	}
	for n, ci := range class {
		if ci < 0 {
			t.Fatalf("node %d is in no class", n)
		}
		p, want := f.Parent(int32(n)), g.Node(ci).Parent
		if p < 0 {
			if want >= 0 {
				t.Fatalf("root node %d is in class %d, whose parent class is %d", n, ci, want)
			}
			continue
		}
		if class[p] != want {
			t.Fatalf("class %d: member %d's parent classified as %d, want %d", ci, n, class[p], want)
		}
	}
}

// TestTwigPrunesImpossibleStructure: insurance is never a child of
// treat in the hospital document, so the synopsis must prove the
// second step of //treat/insurance unsatisfiable — estimate zero,
// intervals pruned, the plan labelled twig — while the answer stays
// the (empty) answer the full lists give.
func TestTwigPrunesImpossibleStructure(t *testing.T) {
	c, s := boot(t, "opt")
	tq, err := c.Translate(xpath.MustParse("//treat/insurance"))
	if err != nil {
		t.Fatalf("translate: %v", err)
	}
	pl := compilePlan(s.current(), tq)
	if pl.pruned == 0 {
		t.Fatal("synopsis pruned nothing from //treat/insurance")
	}
	if got := pl.strategy(); got != "twig" {
		t.Fatalf("a pruned plan is labelled %s", got)
	}
	if n := pl.steps[tq.First.Next].est; n != 0 {
		t.Fatalf("estimate %d for a structurally impossible step", n)
	}
	ans, err := s.Execute(tq)
	if err != nil {
		t.Fatalf("execute: %v", err)
	}
	if len(ans.Fragments) != 0 || len(ans.BlockIDs) != 0 {
		t.Fatalf("impossible query shipped %d fragments, %d blocks",
			len(ans.Fragments), len(ans.BlockIDs))
	}
}

// TestOrderPredsDoesNotMutateQuery: predicate ordering must store a
// reordered copy in the plan, leave the query's own predicate slice
// untouched, lose nothing, and sink not() behind cheaper existence
// checks.
func TestOrderPredsDoesNotMutateQuery(t *testing.T) {
	c, s := boot(t, "opt")
	tq, err := c.Translate(xpath.MustParse("//patient[not(insurance)][treat]/pname"))
	if err != nil {
		t.Fatalf("translate: %v", err)
	}
	orig := append([]wire.QPred(nil), tq.First.Preds...)
	if len(orig) != 2 {
		t.Fatalf("expected 2 predicates, got %d", len(orig))
	}
	pl := compilePlan(s.current(), tq)
	for i := range orig {
		if tq.First.Preds[i] != orig[i] {
			t.Fatal("compilePlan mutated the query's predicate slice")
		}
	}
	ord, ok := pl.predOrder[tq.First]
	if !ok {
		t.Fatal("expected a reordered copy: not() scores above a bare existence check")
	}
	if len(ord) != len(orig) {
		t.Fatalf("reorder changed predicate count: %d vs %d", len(ord), len(orig))
	}
	seen := map[wire.QPred]bool{}
	for _, p := range ord {
		seen[p] = true
	}
	for _, p := range orig {
		if !seen[p] {
			t.Fatal("reorder lost a predicate")
		}
	}
	if _, isNot := ord[len(ord)-1].(*wire.PredNot); !isNot {
		t.Fatalf("not() should order last, got %T", ord[len(ord)-1])
	}
}
