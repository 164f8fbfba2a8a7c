package server

import (
	"bytes"
	"testing"

	"repro/internal/btree"
	"repro/internal/wire"
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
