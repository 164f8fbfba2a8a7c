package wire

import (
	"bytes"
	"errors"
	"io"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"
)

// streamSample returns a representative answer and its chunked
// encoding.
func streamSample(t testing.TB) (*Answer, []byte) {
	a := &Answer{
		Fragments:  [][]byte{[]byte("<patient/>"), []byte("<x>1</x>")},
		BlockIDs:   []int{3, 7, 12},
		Blocks:     [][]byte{{9, 9, 9}, {1}, bytes.Repeat([]byte{0xAB}, 300)},
		Proof:      []byte("SXP1-not-a-real-proof"),
		Epoch:      0xDEADBEEF,
		Generation: 42,
	}
	var buf bytes.Buffer
	if _, _, err := EncodeStreamAnswer(&buf, a, nil); err != nil {
		t.Fatal(err)
	}
	return a, buf.Bytes()
}

func answersEqual(a, b *Answer) bool {
	if a.Epoch != b.Epoch || a.Generation != b.Generation || !bytes.Equal(a.Proof, b.Proof) {
		return false
	}
	if len(a.Fragments) != len(b.Fragments) || len(a.BlockIDs) != len(b.BlockIDs) || len(a.Blocks) != len(b.Blocks) {
		return false
	}
	for i := range a.Fragments {
		if !bytes.Equal(a.Fragments[i], b.Fragments[i]) {
			return false
		}
	}
	for i := range a.BlockIDs {
		if a.BlockIDs[i] != b.BlockIDs[i] || !bytes.Equal(a.Blocks[i], b.Blocks[i]) {
			return false
		}
	}
	return true
}

func TestStreamRoundTrip(t *testing.T) {
	want, enc := streamSample(t)
	var sunk []int
	got, err := DecodeStreamAnswer(bytes.NewReader(enc), func(id int, ct []byte) {
		sunk = append(sunk, id)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !answersEqual(want, got) {
		t.Fatalf("stream round trip drifted: %+v vs %+v", want, got)
	}
	if len(sunk) != len(want.BlockIDs) {
		t.Fatalf("sink saw %d blocks, want %d", len(sunk), len(want.BlockIDs))
	}
	for i, id := range want.BlockIDs {
		if sunk[i] != id {
			t.Fatalf("sink block order drifted at %d: got %d want %d", i, sunk[i], id)
		}
	}
}

// TestStreamRoundTripShapes exercises the degenerate shapes an
// answer can take: no blocks, no fragments, no proof, empty answer.
func TestStreamRoundTripShapes(t *testing.T) {
	cases := []*Answer{
		{},
		{Fragments: [][]byte{[]byte("<a/>")}},
		{BlockIDs: []int{0}, Blocks: [][]byte{{1, 2}}},
		{BlockIDs: []int{5}, Blocks: [][]byte{nil}},
		{Fragments: [][]byte{nil, []byte("x")}, Epoch: 1, Generation: 9},
	}
	for i, want := range cases {
		var buf bytes.Buffer
		if _, _, err := EncodeStreamAnswer(&buf, want, nil); err != nil {
			t.Fatalf("case %d: encode: %v", i, err)
		}
		got, err := DecodeStreamAnswer(bytes.NewReader(buf.Bytes()), nil)
		if err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		// Nil and empty byte slices are interchangeable on the wire.
		if len(got.Fragments) != len(want.Fragments) || len(got.Blocks) != len(want.Blocks) ||
			got.Epoch != want.Epoch || got.Generation != want.Generation {
			t.Fatalf("case %d drifted: %+v vs %+v", i, want, got)
		}
	}
}

// TestStreamStrictPrefixesError mirrors TestStrictPrefixesError for
// the chunked framing: every strict prefix must error — and because
// a stream is consumed incrementally, a torn prefix must look
// RETRYABLE (io.ErrUnexpectedEOF), never like a valid short answer.
func TestStreamStrictPrefixesError(t *testing.T) {
	_, enc := streamSample(t)
	for n := 0; n < len(enc); n++ {
		a, err := DecodeStreamAnswer(bytes.NewReader(enc[:n]), nil)
		if err == nil {
			t.Fatalf("strict prefix of %d/%d bytes decoded into %+v", n, len(enc), a)
		}
	}
	if _, err := DecodeStreamAnswer(bytes.NewReader(enc), nil); err != nil {
		t.Fatalf("full encoding rejected: %v", err)
	}
}

// TestStreamTruncationRetryable: mid-stream EOF must surface as
// io.ErrUnexpectedEOF so the transport classifies it as a torn read
// and retries, per the PR 1 fault model.
func TestStreamTruncationRetryable(t *testing.T) {
	_, enc := streamSample(t)
	for _, n := range []int{len(enc) / 4, len(enc) / 2, len(enc) - 1} {
		_, err := DecodeStreamAnswer(bytes.NewReader(enc[:n]), nil)
		if err == nil {
			t.Fatalf("truncation at %d not detected", n)
		}
		if !strings.Contains(err.Error(), io.ErrUnexpectedEOF.Error()) {
			t.Fatalf("truncation at %d not retryable: %v", n, err)
		}
	}
}

func TestStreamTrailingBytesRejected(t *testing.T) {
	_, enc := streamSample(t)
	if _, err := DecodeStreamAnswer(bytes.NewReader(append(enc[:len(enc):len(enc)], 0)), nil); err == nil {
		t.Fatal("trailing garbage after trailer accepted")
	}
}

func TestStreamChecksumMismatch(t *testing.T) {
	_, enc := streamSample(t)
	for _, flip := range []int{5, len(enc) / 2, len(enc) - 1} {
		bad := append([]byte(nil), enc...)
		bad[flip] ^= 0x01
		if _, err := DecodeStreamAnswer(bytes.NewReader(bad), nil); err == nil {
			t.Fatalf("bit flip at %d accepted", flip)
		}
	}
}

// TestStreamDuplicateTrailer: a second trailer chunk — whether read
// via Next after the first or injected into the byte stream — must
// error.
func TestStreamDuplicateTrailer(t *testing.T) {
	a, _ := streamSample(t)
	var buf bytes.Buffer
	e := NewStreamEncoder(&buf)
	e.Header(StreamHeader{Epoch: a.Epoch, Generation: a.Generation})
	if err := e.Trailer(nil); err != nil {
		t.Fatal(err)
	}
	if err := e.Trailer(nil); err != nil {
		t.Fatal(err) // encoder is not the trust boundary; bytes are
	}
	if _, err := DecodeStreamAnswer(bytes.NewReader(buf.Bytes()), nil); err == nil {
		t.Fatal("duplicate trailer accepted")
	}

	// And via the incremental decoder: Next past the trailer errors.
	_, enc := streamSample(t)
	d := NewStreamDecoder(bytes.NewReader(enc))
	for {
		c, err := d.Next()
		if err != nil {
			t.Fatal(err)
		}
		if c.Trailer() {
			break
		}
	}
	if _, err := d.Next(); err == nil {
		t.Fatal("Next past trailer succeeded")
	}
}

// TestStreamSeqEnforced: chunk sequence numbers must increase by one
// from zero; a reordered or replayed chunk fails immediately, before
// the trailer checksum would catch it.
func TestStreamSeqEnforced(t *testing.T) {
	a := &Answer{BlockIDs: []int{1, 2}, Blocks: [][]byte{{7}, {8}}}
	// Hand-build a stream whose two block chunks carry the same seq.
	var buf bytes.Buffer
	e := NewStreamEncoder(&buf)
	e.Header(StreamHeader{Blocks: 2})
	e.Block(a.BlockIDs[0], a.Blocks[0])
	e.seq-- // replay the sequence number
	e.Block(a.BlockIDs[1], a.Blocks[1])
	e.seq++
	e.Trailer(nil)
	if _, err := DecodeStreamAnswer(bytes.NewReader(buf.Bytes()), nil); err == nil {
		t.Fatal("duplicated chunk seq accepted")
	}
}

// TestStreamHeaderCountsEnforced: chunk counts must match the header
// announcement exactly, and fragments must precede blocks.
func TestStreamHeaderCountsEnforced(t *testing.T) {
	build := func(f func(e *StreamEncoder)) []byte {
		var buf bytes.Buffer
		e := NewStreamEncoder(&buf)
		f(e)
		return buf.Bytes()
	}
	cases := map[string][]byte{
		"missing block": build(func(e *StreamEncoder) {
			e.Header(StreamHeader{Blocks: 2})
			e.Block(1, []byte{1})
			e.Trailer(nil)
		}),
		"extra block": build(func(e *StreamEncoder) {
			e.Header(StreamHeader{Blocks: 1})
			e.Block(1, []byte{1})
			e.Block(2, []byte{2})
			e.Trailer(nil)
		}),
		"extra fragment": build(func(e *StreamEncoder) {
			e.Header(StreamHeader{})
			e.Fragment([]byte("<a/>"))
			e.Trailer(nil)
		}),
		"fragment after block": build(func(e *StreamEncoder) {
			e.Header(StreamHeader{Fragments: 1, Blocks: 1})
			e.Block(1, []byte{1})
			e.Fragment([]byte("<a/>"))
			e.Trailer(nil)
		}),
	}
	for name, enc := range cases {
		if _, err := DecodeStreamAnswer(bytes.NewReader(enc), nil); err == nil {
			t.Fatalf("%s accepted", name)
		}
	}
}

// forgedLength is a 22-byte body whose one fragment frame claims
// 2^28 bytes and carries none: SXS1, a zero epoch, generation 1, one
// fragment, no blocks, then tag 1, seq 0 and the length.
var forgedLength = []byte("SXS1\x00\x00\x00\x00\x00\x00\x00\x00\x01\x01\x00\x01\x00\x80\x80\x80\x80\x01")

// TestStreamForgedLengthBoundsAllocation: a frame length is untrusted
// until the trailer verifies, so the decoder must not allocate what a
// length prefix claims before the bytes arrive.
func TestStreamForgedLengthBoundsAllocation(t *testing.T) {
	for name, decode := range map[string]func([]byte) error{
		"stream": func(b []byte) error {
			_, err := DecodeStreamAnswer(io.MultiReader(bytes.NewReader(b)), nil)
			return err
		},
		"buffered": func(b []byte) error { _, err := UnmarshalAnswer(b); return err },
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := decode(forgedLength)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("%s: forged length: err = %v, want a torn read", name, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Fatalf("%s: decode allocated %d bytes for a %d-byte body claiming 2^28", name, grew, len(forgedLength))
		}
	}
}

// TestStreamFrameGrowsToFit: a genuine frame larger than the first
// buffer step still decodes whole, through a reader that hands over
// one byte at a time.
func TestStreamFrameGrowsToFit(t *testing.T) {
	big := bytes.Repeat([]byte{0x5A}, 3*frameStep+17)
	want := &Answer{Fragments: [][]byte{big}, BlockIDs: []int{1}, Blocks: [][]byte{big[:frameStep]}}
	enc, err := MarshalAnswer(want)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeStreamAnswer(iotest.OneByteReader(bytes.NewReader(enc)), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !answersEqual(want, got) {
		t.Fatal("large frames drifted through the growing buffer")
	}
}

// TestStreamCodecAllocs pins the codec's allocations: encoding costs a
// constant number whatever the answer's size, decoding one per block
// (its ciphertext) plus amortized slice growth — no allocation per tag
// or varint byte.
func TestStreamCodecAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation bounds need sync.Pool, which the race detector drains at random")
	}
	const n = 64
	a := &Answer{Fragments: [][]byte{[]byte("<a/>")}, Proof: []byte("p"), Generation: 1}
	for i := 0; i < n; i++ {
		a.BlockIDs = append(a.BlockIDs, 1000+i)
		a.Blocks = append(a.Blocks, bytes.Repeat([]byte{byte(i)}, 200))
	}
	enc, err := MarshalAnswer(a)
	if err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(20, func() { MarshalAnswer(a) }); got > 8 {
		t.Errorf("encoding a %d-block answer: %.0f allocs, want a constant <= 8", n, got)
	}
	if got := testing.AllocsPerRun(20, func() { UnmarshalAnswer(enc) }); got > 2*n+16 {
		t.Errorf("decoding a %d-block answer: %.0f allocs, want <= %d", n, got, 2*n+16)
	}
}

// FuzzDecodeStream drives the one answer decoder with hostile bytes:
// truncations, duplicate trailers, out-of-order chunk IDs, forged
// lengths, retired envelope frames and arbitrary mutations must error
// (never panic, never over-allocate past the decode caps), the live
// and buffered paths must agree, and anything accepted must re-encode
// and re-decode to the same answer.
func FuzzDecodeStream(f *testing.F) {
	a := &Answer{
		Fragments:  [][]byte{[]byte("<patient/>")},
		BlockIDs:   []int{3, 9},
		Blocks:     [][]byte{{9, 9, 9}, {1, 2}},
		Proof:      []byte("p"),
		Epoch:      7,
		Generation: 3,
	}
	if seed, err := MarshalAnswer(a); err == nil {
		f.Add(seed)
		f.Add(seed[:len(seed)/2])                      // truncation
		f.Add(append(append([]byte{}, seed...), 0x03)) // trailing bytes
	}
	f.Add([]byte{})
	f.Add([]byte("SXS1"))
	f.Add([]byte("SXS1\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00"))
	f.Add(forgedLength)
	// Retired envelopes: they must be rejected, never misparsed.
	f.Add([]byte("SXA1\x01\x0a<patient/>\x01\x03\x03\x09\x09\x09"))
	f.Add([]byte("SXA3\x00\x00\x00\x00\x00\x00\x00\x07\x03\x01p\x00\x00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := UnmarshalAnswer(data)
		_, liveErr := DecodeStreamAnswer(io.MultiReader(bytes.NewReader(data)), nil)
		if (err == nil) != (liveErr == nil) {
			t.Fatalf("buffered and live decoders disagree: %v vs %v", err, liveErr)
		}
		if err != nil {
			return
		}
		if !bytes.HasPrefix(data, streamMagic) {
			t.Fatalf("accepted a body without the SXS1 magic")
		}
		out, err := MarshalAnswer(got)
		if err != nil {
			t.Fatalf("accepted stream cannot re-encode: %v", err)
		}
		again, err := UnmarshalAnswer(out)
		if err != nil {
			t.Fatalf("re-encoded stream does not decode: %v", err)
		}
		if !answersEqual(got, again) {
			t.Fatalf("stream re-encode drifted")
		}
	})
}
