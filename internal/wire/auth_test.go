package wire

import (
	"errors"
	"testing"

	"repro/internal/authtree"
	"repro/internal/btree"
	"repro/internal/dsi"
	"repro/internal/xmltree"
)

// residueNodeIv finds the residue node with the given tag and its
// interval.
func residueNodeIv(t *testing.T, db *HostedDB, tag string) (*xmltree.Node, dsi.Interval) {
	t.Helper()
	for n, iv := range db.ResidueIntervals {
		if n.Tag == tag {
			return n, iv
		}
	}
	t.Fatalf("no residue node %q", tag)
	return nil, dsi.Interval{}
}

func TestAuthStateCanonicalAcrossRoundTrip(t *testing.T) {
	// The client builds from its pre-upload instance, the server from
	// the unmarshaled upload; both must commit to the same root.
	db := sampleDB(t)
	st1, err := BuildAuthState(db)
	if err != nil {
		t.Fatal(err)
	}
	data, err := MarshalDB(db)
	if err != nil {
		t.Fatal(err)
	}
	db2, err := UnmarshalDB(data)
	if err != nil {
		t.Fatal(err)
	}
	st2, err := BuildAuthState(db2)
	if err != nil {
		t.Fatal(err)
	}
	if st1.Root() != st2.Root() {
		t.Fatal("client-side and server-side auth roots differ")
	}
	if st1.NumLeaves() != st2.NumLeaves() {
		t.Fatal("leaf counts differ")
	}
}

func TestAnswerProofVerify(t *testing.T) {
	db := sampleDB(t)
	st, err := BuildAuthState(db)
	if err != nil {
		t.Fatal(err)
	}
	v := st.Verifier()

	patient, iv := residueNodeIv(t, db, "patient")
	frag, err := SerializeFragment(patient)
	if err != nil {
		t.Fatal(err)
	}
	ans := &Answer{
		Fragments: [][]byte{frag},
		BlockIDs:  []int{0},
		Blocks:    [][]byte{db.Blocks[0]},
	}
	proof, err := st.ProveAnswer(ans, []dsi.Interval{iv})
	if err != nil {
		t.Fatal(err)
	}
	ans.Proof = proof
	if err := v.VerifyAnswer(ans); err != nil {
		t.Fatalf("honest answer rejected: %v", err)
	}

	// Modified fragment bytes.
	bad := *ans
	bad.Fragments = [][]byte{[]byte("<patient>evil</patient>")}
	if err := v.VerifyAnswer(&bad); !errors.Is(err, authtree.ErrTampered) {
		t.Fatalf("modified fragment accepted: %v", err)
	}
	// Modified block ciphertext.
	bad = *ans
	bad.Blocks = [][]byte{{9, 9, 9}}
	if err := v.VerifyAnswer(&bad); !errors.Is(err, authtree.ErrTampered) {
		t.Fatalf("modified block accepted: %v", err)
	}
	// Omitted referenced block: the fragment still holds
	// <EncBlock id="0"/>, so stripping the block is an omission.
	bad = *ans
	bad.BlockIDs, bad.Blocks = nil, nil
	stripped, err := st.ProveAnswer(&bad, []dsi.Interval{iv})
	if err != nil {
		t.Fatal(err)
	}
	bad.Proof = stripped
	if err := v.VerifyAnswer(&bad); !errors.Is(err, authtree.ErrTampered) {
		t.Fatalf("omitted referenced block accepted: %v", err)
	}
	// Missing proof.
	bad = *ans
	bad.Proof = nil
	if err := v.VerifyAnswer(&bad); !errors.Is(err, authtree.ErrTampered) {
		t.Fatalf("proofless answer accepted: %v", err)
	}
	// Garbage proof bytes.
	bad = *ans
	bad.Proof = []byte("SXP1garbage")
	if err := v.VerifyAnswer(&bad); !errors.Is(err, authtree.ErrTampered) {
		t.Fatalf("garbage proof accepted: %v", err)
	}
}

func TestEmptyAnswerProofVerify(t *testing.T) {
	db := sampleDB(t)
	st, err := BuildAuthState(db)
	if err != nil {
		t.Fatal(err)
	}
	v := st.Verifier()
	ans := &Answer{}
	proof, err := st.ProveAnswer(ans, nil)
	if err != nil {
		t.Fatal(err)
	}
	ans.Proof = proof
	if err := v.VerifyAnswer(ans); err != nil {
		t.Fatalf("honest empty answer rejected: %v", err)
	}
	// An empty answer proved against a different database must fail:
	// the liveness anchor binds the proof to this root.
	other := sampleDB(t)
	other.Blocks[0] = []byte{42}
	ost, err := BuildAuthState(other)
	if err != nil {
		t.Fatal(err)
	}
	oproof, err := ost.ProveAnswer(&Answer{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ans.Proof = oproof
	if err := v.VerifyAnswer(ans); !errors.Is(err, authtree.ErrTampered) {
		t.Fatalf("cross-database empty proof accepted: %v", err)
	}
}

// TestExtremeProofVerify: a probe's answer proof carries the runs of
// the bands its range touches; VerifyAnswer authenticates them beside
// the block, and CheckProbe recomputes the extreme from them. Every
// forgery is refused by one of the two.
func TestExtremeProofVerify(t *testing.T) {
	db := sampleDB(t)
	db.Blocks = append(db.Blocks, []byte{6, 6})
	db.IndexEntries = append(db.IndexEntries, btree.Entry{Key: 55, BlockID: 1}) // band 0: 99@0, 77@0, 55@1
	st, err := BuildAuthState(db)
	if err != nil {
		t.Fatal(err)
	}
	v := st.Verifier()
	maxBand0 := &Probe{Lo: 0, Hi: 1<<56 - 1, Max: true}
	emptyBand1 := &Probe{Lo: 1 << 56, Hi: 1<<56 + 5}
	answer := func(p *Probe, ids ...int) *Answer {
		t.Helper()
		a := &Answer{}
		for _, id := range ids {
			a.BlockIDs, a.Blocks = append(a.BlockIDs, id), append(a.Blocks, db.Blocks[id])
		}
		if a.Proof, err = st.ProveProbe(a, p); err != nil {
			t.Fatal(err)
		}
		return a
	}
	check := func(p *Probe, a *Answer) error {
		if err := v.VerifyAnswer(a); err != nil {
			return err
		}
		return CheckProbe(p, a)
	}

	// Honest MAX over band 0: extreme key 99, block 0.
	if err := check(maxBand0, answer(maxBand0, 0)); err != nil {
		t.Fatalf("honest extreme rejected: %v", err)
	}
	// Honest MIN over band 0: extreme key 55, block 1.
	minBand0 := &Probe{Lo: 0, Hi: 1<<56 - 1}
	if err := check(minBand0, answer(minBand0, 1)); err != nil {
		t.Fatalf("honest minimum rejected: %v", err)
	}
	// Honest empty range in band 1: provable not-found.
	if err := check(emptyBand1, answer(emptyBand1)); err != nil {
		t.Fatalf("honest not-found rejected: %v", err)
	}

	forgeries := map[string]func() (*Probe, *Answer){
		// Lying not-found over a populated range.
		"false not-found": func() (*Probe, *Answer) { return maxBand0, answer(maxBand0) },
		// A block for a range the bands show empty.
		"block for an empty range": func() (*Probe, *Answer) { return emptyBand1, answer(emptyBand1, 0) },
		// A committed block that does not hold the extreme key.
		"wrong block": func() (*Probe, *Answer) { return maxBand0, answer(maxBand0, 1) },
		// Tampered block ciphertext with a valid band proof.
		"tampered block": func() (*Probe, *Answer) {
			a := answer(maxBand0, 0)
			a.Blocks = [][]byte{{1, 2}}
			return maxBand0, a
		},
		// Proofless result.
		"proofless": func() (*Probe, *Answer) {
			a := answer(maxBand0, 0)
			a.Proof = nil
			return maxBand0, a
		},
		// A proof of band 0 alone for a range that also touches band 1.
		"missing band": func() (*Probe, *Answer) {
			return &Probe{Lo: 0, Hi: 2<<56 - 1, Max: true}, answer(maxBand0, 0)
		},
		// A proof of band 1 for a range in band 0.
		"band out of place": func() (*Probe, *Answer) { return minBand0, answer(emptyBand1) },
		// Two blocks, one of them the extreme's.
		"extra block": func() (*Probe, *Answer) { return maxBand0, answer(maxBand0, 0, 1) },
		// A committed fragment riding along.
		"fragment": func() (*Probe, *Answer) {
			patient, iv := residueNodeIv(t, db, "patient")
			frag, err := SerializeFragment(patient)
			if err != nil {
				t.Fatal(err)
			}
			a := &Answer{Fragments: [][]byte{frag}, BlockIDs: []int{0}, Blocks: [][]byte{db.Blocks[0]}}
			if a.Proof, err = st.prove(a, []dsi.Interval{iv}, maxBand0); err != nil {
				t.Fatal(err)
			}
			return maxBand0, a
		},
	}
	for name, forge := range forgeries {
		if err := check(forge()); !errors.Is(err, authtree.ErrTampered) {
			t.Errorf("%s accepted: %v", name, err)
		}
	}
}

func TestVerifierApplyUpdate(t *testing.T) {
	db := sampleDB(t)
	st, err := BuildAuthState(db)
	if err != nil {
		t.Fatal(err)
	}
	v := st.Verifier()
	oldRoot := v.Root()

	u := &Update{
		Blocks:     []BlockUpdate{{ID: 0, Ciphertext: []byte{7, 7, 7, 7}}},
		DropBands:  []uint8{0},
		AddEntries: []btree.Entry{{Key: 88, BlockID: 0}},
	}
	if err := v.ApplyUpdate(u); err != nil {
		t.Fatal(err)
	}
	if v.Root() == oldRoot {
		t.Fatal("update did not change the root")
	}

	// The advanced verifier must agree with a full rebuild over the
	// post-update database.
	db2 := sampleDB(t)
	db2.Blocks = [][]byte{{7, 7, 7, 7}}
	db2.IndexEntries = []btree.Entry{{Key: 88, BlockID: 0}}
	st2, err := BuildAuthState(db2)
	if err != nil {
		t.Fatal(err)
	}
	if v.Root() != st2.Root() {
		t.Fatal("incrementally updated root disagrees with full rebuild")
	}

	// Band-closure violation: an added entry outside the dropped
	// bands is rejected (the verifier cannot know the bucket's final
	// content).
	bad := &Update{AddEntries: []btree.Entry{{Key: 5 << 56, BlockID: 0}}}
	if err := st.Verifier().ApplyUpdate(bad); err == nil {
		t.Fatal("band-closure violation accepted")
	}
	// Out-of-range block replacement.
	bad = &Update{Blocks: []BlockUpdate{{ID: 9, Ciphertext: []byte{1}}}}
	if err := st.Verifier().ApplyUpdate(bad); err == nil {
		t.Fatal("out-of-range block update accepted")
	}
}

// TestVerifierCloneIsolated: a clone shares its base's tree, so
// advancing the clone must swap in a new tree and leave the base's
// root, and its verdict on an answer proved against that root, as
// they were.
func TestVerifierCloneIsolated(t *testing.T) {
	db := sampleDB(t)
	st, err := BuildAuthState(db)
	if err != nil {
		t.Fatal(err)
	}
	base := st.Verifier()
	oldRoot := base.Root()
	patient, iv := residueNodeIv(t, db, "patient")
	frag, err := SerializeFragment(patient)
	if err != nil {
		t.Fatal(err)
	}
	ans := &Answer{Fragments: [][]byte{frag}, BlockIDs: []int{0}, Blocks: [][]byte{db.Blocks[0]}}
	if ans.Proof, err = st.ProveAnswer(ans, []dsi.Interval{iv}); err != nil {
		t.Fatal(err)
	}

	next := base.Clone()
	u := &Update{
		Blocks:     []BlockUpdate{{ID: 0, Ciphertext: []byte{7, 7, 7, 7}}},
		DropBands:  []uint8{0},
		AddEntries: []btree.Entry{{Key: 88, BlockID: 0}},
	}
	if err := next.ApplyUpdate(u); err != nil {
		t.Fatal(err)
	}
	if next.Root() == oldRoot {
		t.Fatal("the clone's update did not change its root")
	}
	if base.Root() != oldRoot {
		t.Fatal("advancing a clone changed its base's root")
	}
	if err := base.VerifyAnswer(ans); err != nil {
		t.Fatalf("base rejects an answer proved against its root after a clone advanced: %v", err)
	}
	if err := next.VerifyAnswer(ans); !errors.Is(err, authtree.ErrTampered) {
		t.Fatalf("advanced clone accepts the pre-update block: %v", err)
	}
}

func TestProofRoundTrip(t *testing.T) {
	ap := &AnswerProof{
		Frags:    []FragRef{{Index: 3, Lo: 0.25, Hi: 0.5}, {Index: 7, Lo: 0.75, Hi: 1}},
		Siblings: []authtree.Digest{authtree.LeafHash([]byte("x")), authtree.LeafHash([]byte("y"))},
	}
	data, err := MarshalAnswerProof(ap)
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalAnswerProof(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Frags) != 2 || got.Frags[1] != ap.Frags[1] || len(got.Siblings) != 2 || got.Siblings[0] != ap.Siblings[0] {
		t.Fatal("answer proof round trip mismatch")
	}

	banded := &AnswerProof{
		Siblings: []authtree.Digest{authtree.LeafHash([]byte("z"))},
		Bands:    []BandBucket{{Band: 2, Entries: []btree.Entry{{Key: 2<<56 + 9, BlockID: 4}}}},
	}
	data, err = MarshalAnswerProof(banded)
	if err != nil {
		t.Fatal(err)
	}
	gotB, err := UnmarshalAnswerProof(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotB.Frags) != 0 || len(gotB.Siblings) != 1 || len(gotB.Bands) != 1 ||
		gotB.Bands[0].Band != 2 || gotB.Bands[0].Entries[0] != banded.Bands[0].Entries[0] {
		t.Fatal("banded proof round trip mismatch")
	}

	// Truncations must error, never panic — except the cut right after
	// the siblings, which is the band-less proof CheckProbe refuses.
	bandless := len(data) - (1 + 1 + 1 + 8 + 1) // nBands, band, nEntries, key, block
	for i := 0; i < len(data); i++ {
		p, err := UnmarshalAnswerProof(data[:i])
		if i == bandless {
			if err != nil || len(p.Bands) != 0 {
				t.Fatalf("proof cut after its siblings: %+v, %v; want the band-less proof", p, err)
			}
			continue
		}
		if err == nil {
			t.Fatalf("truncated proof (%d bytes) accepted", i)
		}
	}
}

func BenchmarkVerifyAnswer(b *testing.B) {
	db := sampleDBForBench(b)
	st, err := BuildAuthState(db)
	if err != nil {
		b.Fatal(err)
	}
	v := st.Verifier()
	var iv dsi.Interval
	var frag []byte
	for n, i := range db.ResidueIntervals {
		if n.Tag == "patient" {
			iv = i
			frag, err = SerializeFragment(n)
			if err != nil {
				b.Fatal(err)
			}
			break
		}
	}
	ans := &Answer{Fragments: [][]byte{frag}, BlockIDs: []int{0}, Blocks: [][]byte{db.Blocks[0]}}
	proof, err := st.ProveAnswer(ans, []dsi.Interval{iv})
	if err != nil {
		b.Fatal(err)
	}
	ans.Proof = proof
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := v.VerifyAnswer(ans); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(proof)), "proof-bytes")
}

func BenchmarkVerifyProbe(b *testing.B) {
	db := sampleDBForBench(b)
	st, err := BuildAuthState(db)
	if err != nil {
		b.Fatal(err)
	}
	v := st.Verifier()
	p := &Probe{Lo: 0, Hi: 1<<56 - 1, Max: true}
	ans := &Answer{BlockIDs: []int{0}, Blocks: [][]byte{db.Blocks[0]}}
	if ans.Proof, err = st.ProveProbe(ans, p); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := v.VerifyAnswer(ans); err != nil {
			b.Fatal(err)
		}
		if err := CheckProbe(p, ans); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(ans.Proof)), "proof-bytes")
}

// sampleDBForBench mirrors sampleDB for benchmarks (which get *B,
// not *T).
func sampleDBForBench(b *testing.B) *HostedDB {
	b.Helper()
	res, err := xmltree.ParseString(`<hospital><patient><EncBlock id="0"/><SSN>763895</SSN></patient></hospital>`)
	if err != nil {
		b.Fatal(err)
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
	return &HostedDB{
		Residue:          res,
		ResidueIntervals: ivs,
		Table: &dsi.Table{ByTag: map[string][]dsi.Interval{
			"hospital": {{Lo: 0, Hi: 1}},
			"patient":  {{Lo: 0.1, Hi: 0.4}},
		}},
		BlockReps:    []dsi.Interval{{Lo: 0.12, Hi: 0.2}},
		Blocks:       [][]byte{{1, 2, 3, 4, 5}},
		IndexEntries: []btree.Entry{{Key: 99, BlockID: 0}, {Key: 77, BlockID: 0}},
	}
}
