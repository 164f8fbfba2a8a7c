package server

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/btree"
	"repro/internal/wire"
	"repro/internal/xpath"
)

// bandUpdate builds a band-closed index update from the hosted DB's
// own entries: drop the band of the first entry and re-add that
// band's entries unchanged (a no-op content-wise, but it exercises
// the whole drop-and-replace path).
func bandUpdate(s *Server) *wire.Update {
	band := uint8(s.CurrentDB().IndexEntries[0].Key >> 56)
	u := &wire.Update{DropBands: []uint8{band}}
	for _, e := range s.CurrentDB().IndexEntries {
		if uint8(e.Key>>56) == band {
			u.AddEntries = append(u.AddEntries, e)
		}
	}
	return u
}

func TestApplyUpdateBatchAtomicAndIncremental(t *testing.T) {
	_, s := boot(t, "opt")
	// Warm the prover so the batch must advance it incrementally.
	preRoot, err := s.AuthRoot()
	if err != nil {
		t.Fatal(err)
	}
	gen0 := s.Generation()
	preIndexLen := s.IndexSize()

	u1 := &wire.Update{Blocks: []wire.BlockUpdate{{ID: 0, Ciphertext: []byte{1, 2, 3}}}}
	u2 := bandUpdate(s)
	u3 := &wire.Update{Blocks: []wire.BlockUpdate{{ID: 0, Ciphertext: []byte{4, 5, 6}}}}
	if err := s.ApplyUpdateBatch([]*wire.Update{u1, u2, u3}); err != nil {
		t.Fatal(err)
	}

	if got := s.Generation(); got != gen0+1 {
		t.Fatalf("batch bumped generation %d times, want 1", got-gen0)
	}
	// Later member wins the block wholesale.
	if !bytes.Equal(s.CurrentDB().Blocks[0], []byte{4, 5, 6}) {
		t.Fatalf("block 0 = %v after batch", s.CurrentDB().Blocks[0])
	}
	if s.IndexSize() != preIndexLen {
		t.Fatalf("index size %d, want %d", s.IndexSize(), preIndexLen)
	}

	// The incrementally advanced root must equal a from-scratch
	// rebuild over the post-batch database.
	postRoot, err := s.AuthRoot()
	if err != nil {
		t.Fatal(err)
	}
	if postRoot == preRoot {
		t.Fatal("batch did not change the root")
	}
	fresh, err := wire.BuildAuthState(s.CurrentDB())
	if err != nil {
		t.Fatal(err)
	}
	if postRoot != fresh.Root() {
		t.Fatal("incrementally advanced root disagrees with full rebuild")
	}
}

func TestApplyUpdateBatchFinalRootChecked(t *testing.T) {
	_, s := boot(t, "opt")
	st, err := s.authState()
	if err != nil {
		t.Fatal(err)
	}
	v := st.Verifier()
	u1 := &wire.Update{Blocks: []wire.BlockUpdate{{ID: 0, Ciphertext: []byte{7, 7}}}}
	u2 := bandUpdate(s)
	for _, u := range []*wire.Update{u1, u2} {
		if err := v.ApplyUpdate(u); err != nil {
			t.Fatal(err)
		}
	}
	root := v.Root()
	u2.NewRoot = root[:]
	if err := s.ApplyUpdateBatch([]*wire.Update{u1, u2}); err != nil {
		t.Fatalf("chained-root batch rejected: %v", err)
	}
	got, err := s.AuthRoot()
	if err != nil {
		t.Fatal(err)
	}
	if got != root {
		t.Fatal("committed root differs from the client chain")
	}
}

func TestApplyUpdateBatchRootMismatchRevertsAll(t *testing.T) {
	_, s := boot(t, "opt")
	preRoot, err := s.AuthRoot()
	if err != nil {
		t.Fatal(err)
	}
	gen0 := s.Generation()
	prevCT := append([]byte(nil), s.CurrentDB().Blocks[0]...)
	prevEntries := len(s.CurrentDB().IndexEntries)

	good := &wire.Update{Blocks: []wire.BlockUpdate{{ID: 0, Ciphertext: []byte{9, 9}}}}
	bad := bandUpdate(s)
	bad.NewRoot = make([]byte, 32) // wrong final root
	if err := s.ApplyUpdateBatch([]*wire.Update{good, bad}); err == nil {
		t.Fatal("batch with wrong final root accepted")
	}

	// EVERY member reverted — including the earlier, individually
	// fine one — and nothing observable moved.
	if !bytes.Equal(s.CurrentDB().Blocks[0], prevCT) {
		t.Fatal("earlier member's block replacement survived the revert")
	}
	if len(s.CurrentDB().IndexEntries) != prevEntries {
		t.Fatal("index entries changed across a reverted batch")
	}
	if got := s.Generation(); got != gen0 {
		t.Fatalf("reverted batch bumped generation to %d", got)
	}
	postRoot, err := s.AuthRoot()
	if err != nil {
		t.Fatal(err)
	}
	if postRoot != preRoot {
		t.Fatal("reverted batch changed the committed root")
	}
}

func TestApplyUpdateBatchValidatesUpFront(t *testing.T) {
	_, s := boot(t, "opt")
	gen0 := s.Generation()
	if err := s.ApplyUpdateBatch(nil); err == nil {
		t.Fatal("empty batch accepted")
	}
	us := []*wire.Update{
		{Blocks: []wire.BlockUpdate{{ID: 0, Ciphertext: []byte{1}}}},
		{Blocks: []wire.BlockUpdate{{ID: 1 << 20, Ciphertext: []byte{2}}}},
	}
	if err := s.ApplyUpdateBatch(us); err == nil {
		t.Fatal("out-of-range member accepted")
	}
	us[1] = &wire.Update{AddEntries: []btree.Entry{{Key: 1, BlockID: 1 << 20}}}
	us[1].DropBands = []uint8{0}
	if err := s.ApplyUpdateBatch(us); err == nil {
		t.Fatal("out-of-range entry accepted")
	}
	if got := s.Generation(); got != gen0 {
		t.Fatalf("rejected batches bumped generation to %d", got)
	}
}

// TestShuffledBandSameState: an update whose band entries arrive out
// of canonical order — as WAL records written before the owner sorted
// its bands do — commits the same band, the same Merkle root and the
// same answers as the same update in canonical order, and advances the
// owner's verifier to the same root.
func TestShuffledBandSameState(t *testing.T) {
	c, sorted := boot(t, "opt")
	shuffled := New(sorted.CurrentDB())
	st, err := sorted.authState()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := shuffled.authState(); err != nil {
		t.Fatal(err)
	}

	// Re-issue the band of the first query's predicate with every
	// third entry gone.
	queries := []string{"//treat[disease='leukemia']/doctor", "//treat[disease>'a']/doctor", "//patient[pname>'B']/SSN"}
	tq, err := c.Translate(xpath.MustParse(queries[0]))
	if err != nil {
		t.Fatal(err)
	}
	pv, ok := tq.First.Preds[0].(*wire.PredValue)
	if !ok || len(pv.Ranges) == 0 {
		t.Fatalf("%s: no indexed predicate", queries[0])
	}
	band := btree.Band(pv.Ranges[0].Lo)
	ix := sorted.current().index
	var run []btree.Entry
	for i, e := range ix.Band(band) {
		if i%3 != 0 {
			run = append(run, e)
		}
	}
	if len(run) < 3 {
		t.Fatalf("band %d has too few entries to shuffle", band)
	}
	mixed := slices.Clone(run)
	rand.New(rand.NewSource(1)).Shuffle(len(mixed), func(i, j int) { mixed[i], mixed[j] = mixed[j], mixed[i] })
	if slices.IsSortedFunc(mixed, btree.Compare) {
		t.Fatal("shuffle left the band sorted")
	}
	inOrder := &wire.Update{DropBands: []uint8{band}, AddEntries: run}
	outOfOrder := &wire.Update{DropBands: []uint8{band}, AddEntries: mixed}

	vSorted, vShuffled := st.Verifier(), st.Verifier()
	if err := vSorted.ApplyUpdate(inOrder); err != nil {
		t.Fatal(err)
	}
	if err := vShuffled.ApplyUpdate(outOfOrder); err != nil {
		t.Fatal(err)
	}
	if err := sorted.ApplyUpdateBatch([]*wire.Update{inOrder}); err != nil {
		t.Fatal(err)
	}
	if err := shuffled.ApplyUpdateBatch([]*wire.Update{outOfOrder}); err != nil {
		t.Fatal(err)
	}

	if got, want := shuffled.current().index.Band(band), sorted.current().index.Band(band); !slices.Equal(got, want) || !slices.Equal(want, run) {
		t.Fatal("shuffled update committed a different band")
	}
	rootSorted, err := sorted.AuthRoot()
	if err != nil {
		t.Fatal(err)
	}
	rootShuffled, err := shuffled.AuthRoot()
	if err != nil {
		t.Fatal(err)
	}
	if rootSorted != rootShuffled || vSorted.Root() != rootSorted || vShuffled.Root() != rootSorted {
		t.Fatal("shuffled update reached a different root")
	}
	for _, q := range queries {
		tq, err := c.Translate(xpath.MustParse(q))
		if err != nil {
			t.Fatalf("translate %s: %v", q, err)
		}
		tq.WantProof = true
		a, err := sorted.Execute(tq)
		if err != nil {
			t.Fatal(err)
		}
		b, err := shuffled.Execute(tq)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(a.BlockIDs, b.BlockIDs) || !bytes.Equal(a.Proof, b.Proof) || len(a.Fragments) != len(b.Fragments) {
			t.Fatalf("%s: answers differ", q)
		}
		for i := range a.Fragments {
			if !bytes.Equal(a.Fragments[i], b.Fragments[i]) {
				t.Fatalf("%s: fragment %d differs", q, i)
			}
		}
		if err := vShuffled.VerifyAnswer(b); err != nil {
			t.Fatalf("%s: answer rejected: %v", q, err)
		}
	}
}

// TestApplyUpdateBatchRefusesNonBandClosed: an entry outside its
// member's dropped bands is refused at validation, whether or not the
// Merkle prover has been built.
func TestApplyUpdateBatchRefusesNonBandClosed(t *testing.T) {
	_, s := boot(t, "opt")
	gen0 := s.Generation()
	e := s.CurrentDB().IndexEntries[0]
	u := &wire.Update{AddEntries: []btree.Entry{e}}
	if err := s.ApplyUpdateBatch([]*wire.Update{u}); err == nil {
		t.Fatal("non-band-closed update accepted with no prover built")
	}
	u.DropBands = []uint8{btree.Band(e.Key) + 1}
	if err := s.ApplyUpdateBatch([]*wire.Update{bandUpdate(s), u}); err == nil {
		t.Fatal("batch with a non-band-closed member accepted")
	}
	if got := s.Generation(); got != gen0 {
		t.Fatalf("refused updates bumped generation to %d", got)
	}
}
