package wire

import (
	"bytes"
	"strings"
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
	// Block ciphertexts round-trip byte for byte.
	if len(got.Blocks) != len(h.Blocks) {
		t.Fatalf("blocks len %d, want %d", len(got.Blocks), len(h.Blocks))
	}
	for i := range h.Blocks {
		if !bytes.Equal(got.Blocks[i], h.Blocks[i]) {
			t.Fatalf("block %d = %x, want %x", i, got.Blocks[i], h.Blocks[i])
		}
	}
	// Metadata survives: index entries and block reps intact.
	if len(got.IndexEntries) != len(h.IndexEntries) || len(got.BlockReps) != len(h.BlockReps) {
		t.Fatalf("metadata lost: %d entries, %d reps", len(got.IndexEntries), len(got.BlockReps))
	}
	// The inner frame is exactly the upload's bytes.
	upload, err := MarshalDB(h)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(data, upload) {
		t.Fatal("snapshot does not carry the upload's SXDB1 frame")
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
	for _, cut := range []int{1, len(data) / 2, len(data) - 32, len(data) - 1} {
		if _, _, _, err := UnmarshalSnapshot(data[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	if _, _, _, err := UnmarshalSnapshot(append(append([]byte{}, data...), 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

// TestSnapshotBitFlipRejected: a flipped bit anywhere past the magic,
// ciphertext included, fails the checksum.
func TestSnapshotBitFlipRejected(t *testing.T) {
	h := sampleDB(t)
	data, _ := MarshalSnapshot(h, 1, bytes.Repeat([]byte{1}, 32))
	for i := len(snapshotMagic); i < len(data); i++ {
		bad := append([]byte(nil), data...)
		bad[i] ^= 0x01
		_, _, _, err := UnmarshalSnapshot(bad)
		if err == nil || !strings.Contains(err.Error(), "checksum") {
			t.Fatalf("bit flip at byte %d: err = %v, want a checksum failure", i, err)
		}
	}
}
