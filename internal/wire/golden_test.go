package wire

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"

	"repro/internal/authtree"
	"repro/internal/btree"
	"repro/internal/dsi"
	"repro/internal/opess"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// Golden bytes of the frames that cross the trust boundary. A drift in
// any of them strands every peer, log or cached copy written before it.

// TestGoldenUpdateFrameBytes pins the exact bytes of the one update
// frame: what /update accepts is what the WAL stores and recovery
// replays, so a drift here strands every log on disk.
func TestGoldenUpdateFrameBytes(t *testing.T) {
	root := make([]byte, 32)
	for i := range root {
		root[i] = byte(i)
	}
	b := &UpdateBatch{
		RequestID: 0x1122334455667788,
		Updates: []*Update{{
			Blocks:     []BlockUpdate{{ID: 1, Ciphertext: []byte{0xDE, 0xAD, 0xBE, 0xEF}}},
			DropBands:  []uint8{0x07},
			AddEntries: []btree.Entry{{Key: 0x0700000000000001, BlockID: 1}},
			NewRoot:    root,
		}},
	}
	const golden = "53584232" + // magic "SXB2"
		"1122334455667788" + // request id (fixed u64)
		"01" + // 1 member
		"01" + // 1 block update
		"01" + "04" + "deadbeef" + // block 1, 4-byte ciphertext
		"01" + "07" + // 1 dropped band: 7
		"01" + "0700000000000001" + "01" + // 1 entry: key (fixed u64), block 1
		"20" + // 32-byte root
		"000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f"
	data, err := MarshalUpdateBatch(b)
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(data); got != golden {
		t.Fatalf("update frame drifted:\n got %s\nwant %s", got, golden)
	}
}

// mustHex decodes a golden hex string.
func mustHex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// rejectsMagic asserts that a frame in a retired format fails on its
// magic, not somewhere deeper where it could have been misparsed.
func rejectsMagic(t *testing.T, name string, err error) {
	t.Helper()
	if err == nil || !strings.Contains(err.Error(), "bad") || !strings.Contains(err.Error(), "magic") {
		t.Errorf("retired %s frame: err = %v, want a bad-magic rejection", name, err)
	}
}

// TestGoldenSnapshotFrameBytes pins SXDS2, the durable image of a
// hosted database: header, the upload's SXDB1 frame with its blocks
// inline, then a SHA-256 of every byte before it. A drift strands
// every .sxdb file on disk. The retired SXDS1 frame (blocks elided,
// no checksum) must be refused by its magic.
func TestGoldenSnapshotFrameBytes(t *testing.T) {
	res, err := xmltree.ParseString(`<r><EncBlock id="0"/></r>`)
	if err != nil {
		t.Fatal(err)
	}
	h := &HostedDB{
		Residue:          res,
		ResidueIntervals: map[*xmltree.Node]dsi.Interval{res.Nodes()[0]: {Lo: 0, Hi: 1}},
		Table:            &dsi.Table{ByTag: map[string][]dsi.Interval{"T": {{Lo: 0.5, Hi: 0.75}}}},
		BlockReps:        []dsi.Interval{{Lo: 0.5, Hi: 0.75}},
		Blocks:           [][]byte{{0xAB, 0xCD}},
		IndexEntries:     []btree.Entry{{Key: 0x0700000000000001, BlockID: 0}},
	}
	db := "5358444231" + // magic "SXDB1"
		"19" + hex.EncodeToString([]byte(`<r><EncBlock id="0"/></r>`)) + // residue XML
		"01" + "00" + "0000000000000000" + "3ff0000000000000" + // 1 residue interval: node 0, [0, 1]
		"01" + "01" + "54" + "01" + "3fe0000000000000" + "3fe8000000000000" + // 1 label "T", 1 interval [0.5, 0.75]
		"01" + "3fe0000000000000" + "3fe8000000000000" + // 1 block rep [0.5, 0.75]
		"01" + "02" + "abcd" + // 1 block, 2-byte ciphertext
		"01" + "0700000000000001" + "00" // 1 index entry: key (fixed u64), block 0
	body := "5358445332" + // magic "SXDS2"
		"0000000000000009" + // generation 9 (fixed u64)
		"02" + "0102" + // 2-byte root
		db // the upload's frame, not length-prefixed
	sum := sha256.Sum256(mustHex(t, body))
	golden := body + hex.EncodeToString(sum[:]) // SHA-256 of every byte before it

	upload, err := MarshalDB(h)
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(upload); got != db {
		t.Fatalf("database frame drifted:\n got %s\nwant %s", got, db)
	}
	data, err := MarshalSnapshot(h, 9, []byte{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(data); got != golden {
		t.Fatalf("snapshot frame drifted:\n got %s\nwant %s", got, golden)
	}
	back, gen, root, err := UnmarshalSnapshot(data)
	if err != nil || gen != 9 || hex.EncodeToString(root) != "0102" || hex.EncodeToString(back.Blocks[0]) != "abcd" {
		t.Fatalf("golden snapshot decoded to gen %d, root %x, err %v", gen, root, err)
	}

	// The same database as a retired SXDS1 frame: generation, root,
	// the frame length-prefixed with its block elided, no checksum.
	elided := strings.Replace(db, "01"+"02"+"abcd", "01"+"00", 1)
	sxds1 := "5358445331" + "0000000000000009" + "02" + "0102" + "62" + elided
	_, _, _, err = UnmarshalSnapshot(mustHex(t, sxds1))
	rejectsMagic(t, "SXDS1", err)
}

// TestGoldenAnswerFrameBytes pins SXS1, the one answer format: the
// stream a server writes and the bytes the stale-answer cache keeps.
// The retired SXA envelopes must be refused by their magic.
func TestGoldenAnswerFrameBytes(t *testing.T) {
	a := &Answer{
		Fragments:  [][]byte{[]byte("<x/>")},
		BlockIDs:   []int{5},
		Blocks:     [][]byte{{0xAB, 0xCD}},
		Proof:      []byte("P"),
		Epoch:      0x0102030405060708,
		Generation: 9,
	}
	body := "53585331" + // magic "SXS1"
		"0102030405060708" + // epoch (fixed u64)
		"09" + "01" + "01" + // generation 9, 1 fragment, 1 block
		"01" + "00" + "04" + "3c782f3e" + // fragment chunk, seq 0, "<x/>"
		"02" + "01" + "05" + "02" + "abcd" + // block chunk, seq 1, block 5, 2 bytes
		"03" + "02" + "01" + "50" // trailer chunk, seq 2, proof "P"
	sum := sha256.Sum256(mustHex(t, body))
	golden := body + hex.EncodeToString(sum[:]) // SHA-256 of every byte before it

	data, err := MarshalAnswer(a)
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(data); got != golden {
		t.Fatalf("answer frame drifted:\n got %s\nwant %s", got, golden)
	}
	got, err := UnmarshalAnswer(data)
	if err != nil {
		t.Fatal(err)
	}
	if !answersEqual(a, got) {
		t.Fatalf("golden answer decoded to %+v", got)
	}

	for name, frame := range map[string]string{
		// Answer{Fragments: ["<x/>"]} as the retired plain envelope.
		"SXA1": "53584131" + "01" + "04" + "3c782f3e" + "00",
		// ...and with epoch 1, generation 2 and an empty proof.
		"SXA3": "53584133" + "0000000000000001" + "02" + "00" + "01" + "04" + "3c782f3e" + "00",
	} {
		_, err := UnmarshalAnswer(mustHex(t, frame))
		rejectsMagic(t, name, err)
	}
}

// TestGoldenQueryFrameBytes pins SXQ2, the one query frame: it carries
// the want-proof byte whether or not a proof is wanted, and the server's
// caches key on these exact bytes. The retired SXQ1 frame must be
// refused by its magic.
func TestGoldenQueryFrameBytes(t *testing.T) {
	q := &Query{
		WantProof: true,
		First: &QStep{
			Axis:   xpath.AxisChild,
			Desc:   true,
			Labels: []string{"TENC0"},
			Preds: []QPred{
				&PredValue{
					Path:   &QStep{Axis: xpath.AxisChild, Labels: []string{"age"}},
					Op:     xpath.OpGt,
					Ranges: []opess.Range{{Lo: 1, Hi: 2}},
				},
				&PredPos{N: 2},
			},
		},
	}
	const golden = "53585132" + // magic "SXQ2"
		"01" + // want proof
		"01" + // 1 step
		"00" + "01" + "01" + "01" + "05" + "54454e4330" + // child, desc, 1 label "TENC0"
		"02" + // 2 predicates
		"02" + // value predicate
		"01" + "00" + "00" + "01" + "01" + "03" + "616765" + "00" + // path: child, 1 label "age", no preds
		"00" + "04" + "00" + // not plain, op >, empty literal
		"01" + "0000000000000001" + "0000000000000002" + // 1 range (fixed u64 bounds)
		"06" + "02" // position predicate, N = 2
	data, err := MarshalQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(data); got != golden {
		t.Fatalf("query frame drifted:\n got %s\nwant %s", got, golden)
	}

	// Not wanting a proof changes the flag byte, not the frame.
	q.WantProof = false
	data, err = MarshalQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(data); got != golden[:8]+"00"+golden[10:] {
		t.Fatalf("proofless query frame drifted: %s", got)
	}
	if back, err := UnmarshalQuery(data); err != nil || back.WantProof {
		t.Fatalf("proofless query round trip: %+v, %v", back, err)
	}

	// The same one-step query without predicates as a retired SXQ1
	// frame.
	sxq1 := mustHex(t, "53585131"+"01"+"00"+"01"+"01"+"01"+"05"+"54454e4330"+"00")
	_, err = UnmarshalQuery(sxq1)
	rejectsMagic(t, "SXQ1", err)
	if IsQueryFrame(sxq1) {
		t.Error("IsQueryFrame accepted a retired SXQ1 frame")
	}
}

// TestGoldenAnswerProofBytes pins SXP1, the answer proof the SXS1
// trailer carries. A proof without bands is the frame every query
// answer has always carried; a probe's proof appends its band section.
func TestGoldenAnswerProofBytes(t *testing.T) {
	var sib authtree.Digest
	for i := range sib {
		sib[i] = byte(i)
	}
	p := &AnswerProof{
		Frags:    []FragRef{{Index: 3, Lo: 0.25, Hi: 0.5}},
		Siblings: []authtree.Digest{sib},
	}
	const plain = "53585031" + // magic "SXP1"
		"01" + "03" + "3fd0000000000000" + "3fe0000000000000" + // 1 fragment: leaf 3, [0.25, 0.5]
		"01" + "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f" // 1 sibling
	data, err := MarshalAnswerProof(p)
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(data); got != plain {
		t.Fatalf("answer proof drifted:\n got %s\nwant %s", got, plain)
	}

	p.Bands = []BandBucket{{Band: 7, Entries: []btree.Entry{{Key: 0x0700000000000001, BlockID: 5}}}, {Band: 8}}
	const banded = plain +
		"02" + // 2 bands
		"07" + "01" + "0700000000000001" + "05" + // band 7, 1 entry: key (fixed u64), block 5
		"08" + "00" // band 8, empty
	if data, err = MarshalAnswerProof(p); err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(data); got != banded {
		t.Fatalf("banded answer proof drifted:\n got %s\nwant %s", got, banded)
	}
	back, err := UnmarshalAnswerProof(data)
	if err != nil || len(back.Bands) != 2 || back.Bands[0].Entries[0] != p.Bands[0].Entries[0] || len(back.Bands[1].Entries) != 0 {
		t.Fatalf("golden banded proof decoded to %+v, %v", back, err)
	}

	// The retired SXP2 extreme proof (found, block 5, the same band 7,
	// no siblings) must be refused by its magic.
	_, err = UnmarshalAnswerProof(mustHex(t, "53585032"+"01"+"05"+"01"+"07"+"01"+"0700000000000001"+"05"+"00"))
	rejectsMagic(t, "SXP2", err)
}

// TestGoldenProbeFrameBytes pins a MIN/MAX probe as an SXQ2 frame: the
// want-proof byte, zero main-path steps, then the probe's bounds and
// max byte, so every query with steps keeps its bytes.
func TestGoldenProbeFrameBytes(t *testing.T) {
	q := &Query{WantProof: true, Probe: &Probe{Lo: 0x0700000000000001, Hi: 0x07ffffffffffffff, Max: true}}
	const golden = "53585132" + // magic "SXQ2"
		"01" + // want proof
		"00" + // no steps: a probe
		"0700000000000001" + "07ffffffffffffff" + // bounds (fixed u64)
		"01" // max
	data, err := MarshalQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(data); got != golden {
		t.Fatalf("probe frame drifted:\n got %s\nwant %s", got, golden)
	}
	back, err := UnmarshalQuery(data)
	if err != nil || back.First != nil || back.Probe == nil || *back.Probe != *q.Probe || !back.WantProof {
		t.Fatalf("golden probe decoded to %+v, %v", back, err)
	}
	if _, err := MarshalQuery(&Query{First: &QStep{}, Probe: q.Probe}); err == nil {
		t.Error("a probe with steps marshalled")
	}
}
