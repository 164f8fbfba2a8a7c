package wire

import (
	"bytes"
	"testing"

	"repro/internal/authtree"
	"repro/internal/btree"
	"repro/internal/dsi"
	"repro/internal/xmltree"
)

// Fuzz and exhaustive-truncation coverage for every decoder the
// untrusted network can feed: a hostile or torn byte stream must
// produce an error, never a panic and never a silently wrong value.

// fuzzDB builds a small valid HostedDB encoding for seed corpora
// (helper-free so it is callable from testing.F).
func fuzzDB() []byte {
	res, err := xmltree.ParseString(`<hospital><patient><EncBlock id="0"/><SSN>763895</SSN></patient></hospital>`)
	if err != nil {
		return nil
	}
	ivs := map[*xmltree.Node]dsi.Interval{}
	i := 0.0
	for _, n := range res.Nodes() {
		if n.Kind == xmltree.Text {
			continue
		}
		ivs[n] = dsi.Interval{Lo: 0.01 * i, Hi: 0.01*i + 0.005}
		i++
	}
	data, err := MarshalDB(&HostedDB{
		Residue:          res,
		ResidueIntervals: ivs,
		Table: &dsi.Table{ByTag: map[string][]dsi.Interval{
			"hospital": {{Lo: 0, Hi: 1}},
			"patient":  {{Lo: 0.1, Hi: 0.4}},
		}},
		BlockReps:    []dsi.Interval{{Lo: 0.12, Hi: 0.2}},
		Blocks:       [][]byte{{1, 2, 3, 4, 5}},
		IndexEntries: []btree.Entry{{Key: 99, BlockID: 0}},
	})
	if err != nil {
		return nil
	}
	return data
}

func fuzzUpdate() *Update {
	return &Update{
		Blocks:    []BlockUpdate{{ID: 1, Ciphertext: []byte{9, 9, 9}}, {ID: 4, Ciphertext: nil}},
		DropBands: []uint8{3, 7},
		AddEntries: []btree.Entry{
			{Key: 0x0301_0000_0000_0000, BlockID: 1},
			{Key: 0x0700_0000_0000_0001, BlockID: 4},
		},
	}
}

func FuzzUnmarshalDB(f *testing.F) {
	if seed := fuzzDB(); seed != nil {
		f.Add(seed)
	}
	f.Add([]byte{})
	f.Add([]byte("SXDB1"))
	f.Add([]byte("SXDB1\x00\x00\x00"))
	for _, body := range forgedDBCounts {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		db, err := UnmarshalDB(data)
		if err != nil {
			return
		}
		// Anything accepted must survive a re-encode.
		if _, err := MarshalDB(db); err != nil {
			t.Fatalf("accepted input cannot re-marshal: %v", err)
		}
	})
}

func FuzzUnmarshalQuery(f *testing.F) {
	if seed, err := MarshalQuery(sampleQuery()); err == nil {
		f.Add(seed)
	}
	f.Add([]byte{})
	f.Add([]byte("SXQ2"))
	f.Add([]byte("SXQ2\x01\x00"))
	f.Add([]byte("SXQ1\x01\x00")) // retired: must be rejected
	if seed, err := MarshalQuery(&Query{WantProof: true, Probe: &Probe{Lo: 3, Hi: 1 << 60, Max: true}}); err == nil {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		q, err := UnmarshalQuery(data)
		if err != nil {
			return
		}
		// The encoding is canonical: re-marshal must be accepted again.
		out, err := MarshalQuery(q)
		if err != nil {
			t.Fatalf("accepted input cannot re-marshal: %v", err)
		}
		if _, err := UnmarshalQuery(out); err != nil {
			t.Fatalf("re-marshal does not decode: %v", err)
		}
	})
}

// FuzzUnmarshalAnswer drives the buffered answer decoder: anything it
// accepts is an SXS1 stream that re-encodes to the same bytes, and the
// retired SXA1 envelope is rejected.
func FuzzUnmarshalAnswer(f *testing.F) {
	if seed, err := MarshalAnswer(&Answer{
		Fragments: [][]byte{[]byte("<patient/>")},
		BlockIDs:  []int{3},
		Blocks:    [][]byte{{9, 9, 9}},
	}); err == nil {
		f.Add(seed)
	}
	f.Add([]byte{})
	f.Add([]byte("SXA1"))
	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := UnmarshalAnswer(data)
		if err != nil {
			return
		}
		if !bytes.HasPrefix(data, streamMagic) {
			t.Fatalf("accepted an answer without the SXS1 magic")
		}
		out, err := MarshalAnswer(a)
		if err != nil {
			t.Fatalf("accepted input cannot re-marshal: %v", err)
		}
		if !bytes.Equal(out, data) {
			t.Fatalf("answer decode/encode not canonical")
		}
	})
}

// memberBytes is the one member encoding of u, on its own.
func memberBytes(u *Update) []byte {
	w := getWriter()
	writeUpdate(w, u)
	return w.finish()
}

// FuzzUnmarshalUpdate drives the member decoder directly, so the
// fuzzer need not get past the batch header to reach it.
func FuzzUnmarshalUpdate(f *testing.F) {
	seed := memberBytes(fuzzUpdate())
	rooted := fuzzUpdate()
	rooted.NewRoot = bytes.Repeat([]byte{0xAB}, 32)
	f.Add(seed)
	f.Add(memberBytes(rooted))
	f.Add(seed[:len(seed)/2])
	f.Add([]byte{0, 0, 0x80, 0x80, 0x80, 0x80, 0x01}) // 2^28 entries, no bytes behind them
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		u, err := readUpdate(&reader{r: bytes.NewReader(data)})
		if err != nil {
			return
		}
		if _, err := readUpdate(&reader{r: bytes.NewReader(memberBytes(u))}); err != nil {
			t.Fatalf("accepted member does not re-decode: %v", err)
		}
	})
}

// FuzzUnmarshalUpdateBatch drives the only decoder /update bodies and
// WAL payloads go through.
func FuzzUnmarshalUpdateBatch(f *testing.F) {
	one, _ := MarshalUpdateBatch(&UpdateBatch{RequestID: 7, Updates: []*Update{fuzzUpdate()}})
	many := &UpdateBatch{RequestID: 8}
	for i := 0; i < 16; i++ {
		many.Updates = append(many.Updates, fuzzUpdate())
	}
	sixteen, _ := MarshalUpdateBatch(many)
	lying := append([]byte(nil), sixteen...)
	lying[4+8] = 0x7F // claims 127 members, holds 16
	f.Add(one)
	f.Add(sixteen)
	f.Add(sixteen[:len(sixteen)-len(one)/2]) // truncated member
	f.Add(lying)
	f.Add(append(append([]byte(nil), one...), 0)) // trailing byte
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := UnmarshalUpdateBatch(data)
		if err != nil {
			return
		}
		out, err := MarshalUpdateBatch(b)
		if err != nil {
			t.Fatalf("accepted input cannot re-marshal: %v", err)
		}
		if _, err := UnmarshalUpdateBatch(out); err != nil {
			t.Fatalf("re-marshal does not decode: %v", err)
		}
	})
}

// FuzzDecodeProof drives the proof decoder with hostile bytes: a proof
// blob comes from the untrusted server with every answer, so it is the
// single most attacker-exposed decoder in the system, and a probe's
// proof carries whole band runs. It must error (never panic, never
// allocate for a count the input cannot hold) and anything accepted
// must re-marshal.
func FuzzDecodeProof(f *testing.F) {
	if seed, err := MarshalAnswerProof(&AnswerProof{
		Frags:    []FragRef{{Index: 2, Lo: 0.25, Hi: 0.75}},
		Siblings: []authtree.Digest{{1, 2, 3}, {4, 5, 6}},
	}); err == nil {
		f.Add(seed)
	}
	if seed, err := MarshalAnswerProof(&AnswerProof{
		Siblings: []authtree.Digest{{7, 7, 7}},
		Bands: []BandBucket{{Band: 3, Entries: []btree.Entry{
			{Key: 0x0301_0000_0000_0000, BlockID: 1},
		}}, {Band: 4}},
	}); err == nil {
		f.Add(seed)
	}
	f.Add([]byte{})
	f.Add([]byte("SXP1"))
	for _, body := range forgedProofCounts {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := UnmarshalAnswerProof(data)
		if err != nil {
			return
		}
		out, err := MarshalAnswerProof(p)
		if err != nil {
			t.Fatalf("accepted proof cannot re-marshal: %v", err)
		}
		if _, err := UnmarshalAnswerProof(out); err != nil {
			t.Fatalf("re-marshal does not decode: %v", err)
		}
	})
}

// TestStrictPrefixesError: the wire decoders read sequentially and
// check for trailing bytes, so EVERY strict prefix of a valid
// encoding must be rejected — a truncated message can never decode
// into a plausible shorter one.
func TestStrictPrefixesError(t *testing.T) {
	queryBytes, err := MarshalQuery(sampleQuery())
	if err != nil {
		t.Fatal(err)
	}
	probeBytes, err := MarshalQuery(&Query{Probe: &Probe{Lo: 1, Hi: 2}})
	if err != nil {
		t.Fatal(err)
	}
	answerBytes, err := MarshalAnswer(&Answer{
		Fragments: [][]byte{[]byte("<patient/>"), []byte("<x>1</x>")},
		BlockIDs:  []int{3, 7},
		Blocks:    [][]byte{{9, 9, 9}, {1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	updateBytes, err := MarshalUpdateBatch(&UpdateBatch{RequestID: 42, Updates: []*Update{fuzzUpdate(), fuzzUpdate()}})
	if err != nil {
		t.Fatal(err)
	}
	dbBytes := fuzzDB()
	if dbBytes == nil {
		t.Fatal("fuzzDB returned no encoding")
	}

	cases := []struct {
		name      string
		data      []byte
		unmarshal func([]byte) error
	}{
		{"db", dbBytes, func(b []byte) error { _, err := UnmarshalDB(b); return err }},
		{"query", queryBytes, func(b []byte) error { _, err := UnmarshalQuery(b); return err }},
		{"probe", probeBytes, func(b []byte) error { _, err := UnmarshalQuery(b); return err }},
		{"answer", answerBytes, func(b []byte) error { _, err := UnmarshalAnswer(b); return err }},
		{"update", updateBytes, func(b []byte) error { _, err := UnmarshalUpdateBatch(b); return err }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for n := 0; n < len(tc.data); n++ {
				if err := tc.unmarshal(tc.data[:n]); err == nil {
					t.Fatalf("strict prefix of %d/%d bytes decoded without error", n, len(tc.data))
				}
			}
			// Sanity: the full encoding still decodes.
			if err := tc.unmarshal(tc.data); err != nil {
				t.Fatalf("full encoding rejected: %v", err)
			}
		})
	}
}
