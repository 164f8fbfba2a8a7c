package wire

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/btree"
)

func sampleBatch() *UpdateBatch {
	return &UpdateBatch{
		RequestID: 0xCAFE,
		Updates: []*Update{
			{
				Blocks:     []BlockUpdate{{ID: 0, Ciphertext: []byte{9, 9}}},
				DropBands:  []uint8{0},
				AddEntries: []btree.Entry{{Key: 42, BlockID: 0}},
			},
			{
				Blocks:  []BlockUpdate{{ID: 0, Ciphertext: []byte{8, 8, 8}}},
				NewRoot: bytes.Repeat([]byte{0xAB}, 32),
			},
		},
	}
}

func TestUpdateBatchRoundTrip(t *testing.T) {
	b := sampleBatch()
	data, err := MarshalUpdateBatch(b)
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalUpdateBatch(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.RequestID != b.RequestID || len(got.Updates) != 2 {
		t.Fatalf("round trip: id=%d n=%d", got.RequestID, len(got.Updates))
	}
	u0, u1 := got.Updates[0], got.Updates[1]
	if len(u0.Blocks) != 1 || u0.Blocks[0].ID != 0 ||
		!bytes.Equal(u0.Blocks[0].Ciphertext, []byte{9, 9}) ||
		len(u0.DropBands) != 1 || u0.DropBands[0] != 0 ||
		len(u0.AddEntries) != 1 || u0.AddEntries[0] != (btree.Entry{Key: 42, BlockID: 0}) {
		t.Fatalf("member 0 mismatch: %+v", u0)
	}
	if !bytes.Equal(u1.NewRoot, b.Updates[1].NewRoot) {
		t.Fatalf("member 1 mismatch: %+v", u1)
	}
}

func TestUpdateBatchErrors(t *testing.T) {
	if _, err := MarshalUpdateBatch(&UpdateBatch{RequestID: 1}); err == nil {
		t.Fatal("empty batch marshaled")
	}
	data, err := MarshalUpdateBatch(sampleBatch())
	if err != nil {
		t.Fatal(err)
	}
	// Every strict prefix must error, never panic.
	for i := 0; i < len(data); i++ {
		if _, err := UnmarshalUpdateBatch(data[:i]); err == nil {
			t.Fatalf("truncated batch (%d bytes) accepted", i)
		}
	}
	if _, err := UnmarshalUpdateBatch(append(append([]byte(nil), data...), 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
	// A member count the frame cannot hold is rejected up front.
	lying := append([]byte(nil), data...)
	lying[4+8] = 0x7F
	if _, err := UnmarshalUpdateBatch(lying); err == nil {
		t.Fatal("lying member count accepted")
	}
}

// TestUpdateDecodeBoundsAllocation: a dozen bytes claiming 2^28 index
// entries, members or ciphertext bytes must fail on the count, before
// anything is allocated for it.
func TestUpdateDecodeBoundsAllocation(t *testing.T) {
	huge := []byte{0x80, 0x80, 0x80, 0x80, 0x01} // uvarint 1<<28
	frame := func(body ...[]byte) []byte {
		out := append([]byte("SXB2"), make([]byte, 8)...)
		for _, b := range body {
			out = append(out, b...)
		}
		return out
	}
	cases := map[string][]byte{
		"members": frame(huge),
		"entries": frame([]byte{1, 0, 0}, huge),
		"bytes":   frame([]byte{1, 1, 0}, huge),
	}
	for name, data := range cases {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := UnmarshalUpdateBatch(data)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%s: frame of %d bytes claiming 2^28 accepted", name, len(data))
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Fatalf("%s: decode allocated %d bytes for a %d-byte frame", name, grew, len(data))
		}
	}
}

func TestAuthStateApplyUpdates(t *testing.T) {
	db := sampleDB(t)
	db.Blocks = [][]byte{{1, 2, 3}, {4, 5, 6}}
	st, err := BuildAuthState(db)
	if err != nil {
		t.Fatal(err)
	}
	preRoot := st.Root()

	us := []*Update{
		{
			Blocks:     []BlockUpdate{{ID: 0, Ciphertext: []byte{7, 7, 7}}},
			DropBands:  []uint8{0},
			AddEntries: []btree.Entry{{Key: 88, BlockID: 0}, {Key: 12, BlockID: 1}},
		},
		{
			Blocks:     []BlockUpdate{{ID: 1, Ciphertext: []byte{6, 6}}},
			DropBands:  []uint8{0},
			AddEntries: []btree.Entry{{Key: 90, BlockID: 1}},
		},
	}
	bands, err := ReplacedBands(us)
	if err != nil {
		t.Fatal(err)
	}
	next, err := st.ApplyUpdates(us, st.index.With(bands))
	if err != nil {
		t.Fatal(err)
	}
	// Copy-on-write: the receiver is untouched (that IS the revert
	// path on a root mismatch).
	if st.Root() != preRoot {
		t.Fatal("ApplyUpdates mutated the receiver")
	}
	if next.Root() == preRoot {
		t.Fatal("batch did not change the root")
	}

	// The incremental root must equal a from-scratch rebuild over the
	// post-batch database (later member wins the band wholesale).
	db2 := sampleDB(t)
	db2.Blocks = [][]byte{{7, 7, 7}, {6, 6}}
	db2.IndexEntries = []btree.Entry{{Key: 90, BlockID: 1}}
	st2, err := BuildAuthState(db2)
	if err != nil {
		t.Fatal(err)
	}
	if next.Root() != st2.Root() {
		t.Fatal("incremental batch root disagrees with full rebuild")
	}

	// The chained AuthVerifier arrives at the same place.
	v := st.Verifier()
	for _, u := range us {
		if err := v.ApplyUpdate(u); err != nil {
			t.Fatal(err)
		}
	}
	if v.Root() != next.Root() {
		t.Fatal("verifier chain disagrees with server batch advance")
	}

	// The advanced state must still prove: its band buckets and tree
	// are coherent.
	p := &Probe{Lo: 0, Hi: 1<<56 - 1, Max: true}
	ans := &Answer{BlockIDs: []int{1}, Blocks: [][]byte{{6, 6}}}
	if ans.Proof, err = next.ProveProbe(ans, p); err != nil {
		t.Fatal(err)
	}
	if err := v.VerifyAnswer(ans); err != nil {
		t.Fatalf("proof from advanced state rejected: %v", err)
	}
	if err := CheckProbe(p, ans); err != nil {
		t.Fatalf("probe answer from advanced state rejected: %v", err)
	}

	// Band closure and block range are enforced per member.
	if _, err := ReplacedBands([]*Update{{AddEntries: []btree.Entry{{Key: 5 << 56, BlockID: 0}}}}); err == nil {
		t.Fatal("band-closure violation accepted")
	}
	if _, err := st.ApplyUpdates([]*Update{{Blocks: []BlockUpdate{{ID: 9, Ciphertext: []byte{1}}}}}, st.index); err == nil {
		t.Fatal("out-of-range block accepted")
	}
}
