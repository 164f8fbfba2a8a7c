package wire

// Binary encoding of the Merkle verification object (auth.go). The
// blob travels opaquely inside Answer.Proof, in the SXS1 trailer; it
// is produced by an untrusted server, so the decoder is as defensive
// as every other wire decoder (counts bounded by the bytes left,
// trailing-byte checks) and is covered by FuzzDecodeProof.
//
// Layout (integers are uvarints unless noted):
//
//	"SXP1" nFrags { leafIndex lo(f64) hi(f64) } × nFrags
//	       nSiblings { digest(32) } × nSiblings
//	       [ nBands { band(1) nEntries { key(u64) blockID } × nEntries } × nBands ]
//
// The band section is present only in a probe's proof (nBands ≥ 1); a
// query answer's proof ends at its siblings. A banded proof cut right
// after its siblings therefore decodes as band-less, and CheckProbe
// finds its bands missing.

import (
	"bytes"
	"fmt"
	"io"

	"repro/internal/authtree"
	"repro/internal/btree"
)

var answerProofMagic = []byte("SXP1")

// FragRef binds one answer fragment to its committed leaf: the
// absolute leaf index plus the fragment's DSI interval (part of the
// hashed leaf data, so a server cannot relabel a fragment).
type FragRef struct {
	Index  int
	Lo, Hi float64
}

// AnswerProof is the verification object for an answer: leaf bindings
// for every shipped fragment, the complete runs of the value-index
// bands a probe touched, and the multiproof siblings covering those
// fragment and band leaves and every shipped block leaf (block leaf
// indices are the block IDs themselves, so they need no separate
// refs).
type AnswerProof struct {
	Frags    []FragRef
	Siblings []authtree.Digest
	Bands    []BandBucket
}

// BandBucket is one value-index band's complete, canonically ordered
// entry run — the completeness half of a probe's proof.
type BandBucket struct {
	Band    uint8
	Entries []btree.Entry
}

// maxProofSiblings caps decoded sibling counts; a legitimate proof
// over even millions of leaves needs far fewer.
const maxProofSiblings = 1 << 20

// MarshalAnswerProof serializes an answer proof.
func MarshalAnswerProof(p *AnswerProof) ([]byte, error) {
	w := getWriter()
	w.buf.Write(answerProofMagic)
	w.uvarint(uint64(len(p.Frags)))
	for _, f := range p.Frags {
		w.uvarint(uint64(f.Index))
		w.f64(f.Lo)
		w.f64(f.Hi)
	}
	writeDigests(w, p.Siblings)
	if len(p.Bands) > 0 {
		w.uvarint(uint64(len(p.Bands)))
		for _, b := range p.Bands {
			w.buf.WriteByte(b.Band)
			w.uvarint(uint64(len(b.Entries)))
			for _, e := range b.Entries {
				w.u64(e.Key)
				w.uvarint(uint64(e.BlockID))
			}
		}
	}
	return w.finish(), nil
}

// UnmarshalAnswerProof reverses MarshalAnswerProof.
func UnmarshalAnswerProof(data []byte) (*AnswerProof, error) {
	r := &reader{r: bytes.NewReader(data)}
	if err := expectMagic(r.r, answerProofMagic); err != nil {
		return nil, err
	}
	p := &AnswerProof{}
	nf, err := r.count("proof fragment")
	if err != nil {
		return nil, err
	}
	for i := 0; i < nf; i++ {
		var f FragRef
		idx, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		f.Index = int(idx)
		if f.Lo, err = r.f64(); err != nil {
			return nil, err
		}
		if f.Hi, err = r.f64(); err != nil {
			return nil, err
		}
		p.Frags = append(p.Frags, f)
	}
	if p.Siblings, err = readDigests(r); err != nil {
		return nil, err
	}
	if r.r.Len() > 0 {
		if p.Bands, err = readBands(r); err != nil {
			return nil, err
		}
	}
	if r.r.Len() != 0 {
		return nil, fmt.Errorf("wire: %d trailing bytes", r.r.Len())
	}
	return p, nil
}

// readBands decodes a proof's band section, which holds at least one
// band (an empty one is not written).
func readBands(r *reader) ([]BandBucket, error) {
	nb, err := r.countOf("proof band", 2)
	if err != nil {
		return nil, err
	}
	if nb == 0 {
		return nil, fmt.Errorf("wire: empty proof band section")
	}
	bands := make([]BandBucket, nb)
	for i := range bands {
		if bands[i].Band, err = r.r.ReadByte(); err != nil {
			return nil, err
		}
		ne, err := r.countOf("band entry", minIndexEntryBytes)
		if err != nil {
			return nil, err
		}
		bands[i].Entries = make([]btree.Entry, ne)
		for j := range bands[i].Entries {
			e := &bands[i].Entries[j]
			if e.Key, err = r.u64(); err != nil {
				return nil, err
			}
			bid, err := r.uvarint()
			if err != nil {
				return nil, err
			}
			e.BlockID = int(bid)
		}
	}
	return bands, nil
}

func writeDigests(w *writer, ds []authtree.Digest) {
	w.uvarint(uint64(len(ds)))
	for _, d := range ds {
		w.buf.Write(d[:])
	}
}

func readDigests(r *reader) ([]authtree.Digest, error) {
	n, err := r.countOf("sibling digest", authtree.DigestSize)
	if err != nil {
		return nil, err
	}
	if n > maxProofSiblings {
		return nil, fmt.Errorf("wire: sibling count %d exceeds limit", n)
	}
	out := make([]authtree.Digest, n)
	for i := range out {
		if _, err := io.ReadFull(r.r, out[i][:]); err != nil {
			return nil, err
		}
	}
	return out, nil
}
