package wire

import (
	"bytes"
	"testing"
)

func TestSnapshotRoundTrip(t *testing.T) {
	h := sampleDB(t)
	root := bytes.Repeat([]byte{0xAB}, 32)
	data, err := MarshalSnapshot(h, 17, root)
	if err != nil {
		t.Fatal(err)
	}
	got, gen, gotRoot, err := UnmarshalSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	if gen != 17 || !bytes.Equal(gotRoot, root) {
		t.Fatalf("gen=%d root=%x", gen, gotRoot)
	}
	// Block ciphertexts are elided but the count is preserved.
	if len(got.Blocks) != len(h.Blocks) {
		t.Fatalf("blocks len %d, want %d", len(got.Blocks), len(h.Blocks))
	}
	for i, b := range got.Blocks {
		if len(b) != 0 {
			t.Fatalf("block %d not elided (%d bytes)", i, len(b))
		}
	}
	// Metadata survives: index entries and block reps intact.
	if len(got.IndexEntries) != len(h.IndexEntries) || len(got.BlockReps) != len(h.BlockReps) {
		t.Fatalf("metadata lost: %d entries, %d reps", len(got.IndexEntries), len(got.BlockReps))
	}
	// The source database is untouched (MarshalSnapshot works on a copy).
	for i, b := range h.Blocks {
		if len(b) == 0 {
			t.Fatalf("source block %d was elided in place", i)
		}
	}
}

func TestSnapshotNilRoot(t *testing.T) {
	h := sampleDB(t)
	data, err := MarshalSnapshot(h, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, gen, root, err := UnmarshalSnapshot(data)
	if err != nil || gen != 3 || root != nil {
		t.Fatalf("gen=%d root=%v err=%v", gen, root, err)
	}
}

func TestSnapshotRejectsLegacyDB(t *testing.T) {
	h := sampleDB(t)
	data, err := MarshalDB(h)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := UnmarshalSnapshot(data); err == nil {
		t.Fatal("UnmarshalSnapshot accepted a legacy frame")
	}
}

func TestSnapshotTruncationRejected(t *testing.T) {
	h := sampleDB(t)
	data, _ := MarshalSnapshot(h, 1, bytes.Repeat([]byte{1}, 32))
	for _, cut := range []int{1, len(data) / 2, len(data) - 1} {
		if _, _, _, err := UnmarshalSnapshot(data[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	if _, _, _, err := UnmarshalSnapshot(append(append([]byte{}, data...), 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
}
