package wire

// SXS1, the one answer format. An answer is a header frame (generation
// echo + fragment/block counts), then one frame per fragment and per
// block, then a trailer carrying the Merkle proof and a running
// SHA-256 checksum of every byte before it. The decoder consumes an
// io.Reader incrementally, so a receiver can hand each block to the
// decrypt pipeline while later chunks are still in flight; the
// buffered form (MarshalAnswer / UnmarshalAnswer) is the same bytes in
// one slice, for callers without a connection.
//
// Integrity: the trailer checksum covers the whole body, which is why
// no body-checksum header travels with an answer (one cannot be sent
// before a body that is produced incrementally). A decoder returns an
// answer only after the trailer verifies; a truncated, reordered,
// duplicated or bit-flipped stream surfaces as an error, never as a
// partial answer. Per-block confidentiality and authenticity remain
// AES-GCM's job.
//
// Layout (integers are uvarints unless noted, byte strings are
// length-prefixed, seq counts every chunk from 0):
//
//	"SXS1" epoch(8) generation nFragments nBlocks
//	{ 0x01 seq fragmentBytes }  × nFragments
//	{ 0x02 seq blockID blockBytes } × nBlocks
//	  0x03 seq proofBytes sha256(32, fixed)   — exactly once, last

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"io"
)

var streamMagic = []byte("SXS1")

// Stream chunk tags.
const (
	chunkFragment byte = 1
	chunkBlock    byte = 2
	chunkTrailer  byte = 3
)

// StreamHeader is the first frame of a chunked answer.
type StreamHeader struct {
	Epoch      uint64
	Generation uint64
	Fragments  int
	Blocks     int
}

// StreamEncoder writes one chunked answer to w. Methods must be
// called in protocol order: Header, then every Fragment, then every
// Block, then Trailer. The first error sticks and is returned by
// every later call.
type StreamEncoder struct {
	w     io.Writer
	sum   hash.Hash
	seq   uint64
	err   error
	bytes int
	tmp   [binary.MaxVarintLen64]byte
}

// NewStreamEncoder starts a chunked answer on w.
func NewStreamEncoder(w io.Writer) *StreamEncoder {
	return &StreamEncoder{w: w, sum: sha256.New()}
}

// BytesWritten reports how many bytes have been emitted so far.
func (e *StreamEncoder) BytesWritten() int { return e.bytes }

// Chunks reports how many chunks (fragments, blocks, trailer) have
// been emitted so far.
func (e *StreamEncoder) Chunks() int { return int(e.seq) }

func (e *StreamEncoder) write(p []byte) {
	if e.err != nil {
		return
	}
	if _, err := e.w.Write(p); err != nil {
		e.err = err
		return
	}
	e.sum.Write(p)
	e.bytes += len(p)
}

func (e *StreamEncoder) uvarint(v uint64) {
	n := binary.PutUvarint(e.tmp[:], v)
	e.write(e.tmp[:n])
}

func (e *StreamEncoder) prefixed(b []byte) {
	e.uvarint(uint64(len(b)))
	e.write(b)
}

// Header emits the stream header frame.
func (e *StreamEncoder) Header(h StreamHeader) error {
	e.write(streamMagic)
	binary.BigEndian.PutUint64(e.tmp[:8], h.Epoch)
	e.write(e.tmp[:8])
	e.uvarint(h.Generation)
	e.uvarint(uint64(h.Fragments))
	e.uvarint(uint64(h.Blocks))
	return e.err
}

func (e *StreamEncoder) chunk(tag byte) {
	e.tmp[0] = tag
	e.write(e.tmp[:1])
	e.uvarint(e.seq)
	e.seq++
}

// Fragment emits one plaintext residue fragment.
func (e *StreamEncoder) Fragment(b []byte) error {
	e.chunk(chunkFragment)
	e.prefixed(b)
	return e.err
}

// Block emits one ciphertext block frame.
func (e *StreamEncoder) Block(id int, ct []byte) error {
	e.chunk(chunkBlock)
	e.uvarint(uint64(id))
	e.prefixed(ct)
	return e.err
}

// Trailer closes the stream: the Merkle proof (empty when the query
// asked for none) followed by the checksum of everything before it.
func (e *StreamEncoder) Trailer(proof []byte) error {
	e.chunk(chunkTrailer)
	e.prefixed(proof)
	if e.err != nil {
		return e.err
	}
	digest := e.sum.Sum(nil)
	if _, err := e.w.Write(digest); err != nil {
		e.err = err
		return e.err
	}
	e.bytes += len(digest)
	return nil
}

// flushStride is how many bytes EncodeStreamAnswer lets accumulate
// between flushes. Flushing after every block would cost one write
// syscall (and one HTTP chunk) per block, which for answers made of
// many small blocks erases the streaming win; the stride batches
// small frames while still pushing large answers out promptly.
const flushStride = 16 << 10

// EncodeStreamAnswer writes a whole answer as one SXS1 stream, calling
// flush (when non-nil) each time a stride of flushStride bytes has
// filled, so frames reach the peer while later ones are still being
// produced. It never flushes after the header or the trailer: an
// answer smaller than one stride leaves in the caller's single final
// write. It returns the total bytes and chunks written.
func EncodeStreamAnswer(w io.Writer, a *Answer, flush func()) (int, int, error) {
	e := NewStreamEncoder(w)
	e.Header(StreamHeader{
		Epoch:      a.Epoch,
		Generation: a.Generation,
		Fragments:  len(a.Fragments),
		Blocks:     len(a.Blocks),
	})
	flushed := 0
	stride := func() {
		if flush != nil && e.bytes-flushed >= flushStride {
			flush()
			flushed = e.bytes
		}
	}
	for _, f := range a.Fragments {
		e.Fragment(f)
		stride()
	}
	for i, id := range a.BlockIDs {
		if err := e.Block(id, a.Blocks[i]); err != nil {
			return e.bytes, int(e.seq), err
		}
		stride()
	}
	err := e.Trailer(a.Proof)
	return e.bytes, int(e.seq), err
}

// MarshalAnswer is the buffered form of SXS1: the bytes
// EncodeStreamAnswer writes, as one exact-size frame.
func MarshalAnswer(a *Answer) ([]byte, error) {
	w := getWriter()
	if _, _, err := EncodeStreamAnswer(&w.buf, a, nil); err != nil {
		return nil, err
	}
	return w.finish(), nil
}

// UnmarshalAnswer reverses MarshalAnswer, through the same decoder a
// live stream goes through.
func UnmarshalAnswer(data []byte) (*Answer, error) {
	return DecodeStreamAnswer(bytes.NewReader(data), nil)
}

// StreamStats reports what a streamed transfer moved: the chunked
// body's size and frame count.
type StreamStats struct {
	Bytes  int
	Chunks int
}

// StreamDecoder reads one chunked answer from r incrementally.
type StreamDecoder struct {
	r      byteReader
	sum    hash.Hash
	tmp    [8]byte // magic, epoch and single-byte reads
	seq    uint64
	header StreamHeader
	// remaining per-kind chunk budget, enforced against the header.
	fragLeft, blockLeft int
	headerRead          bool
	done                bool
}

// byteReader is what the decoder reads through: a bytes.Reader as is,
// anything else behind a bufio.Reader.
type byteReader interface {
	io.Reader
	io.ByteReader
}

// NewStreamDecoder starts decoding a chunked answer from r.
func NewStreamDecoder(r io.Reader) *StreamDecoder {
	br, ok := r.(byteReader)
	if !ok {
		br = bufio.NewReader(r)
	}
	return &StreamDecoder{r: br, sum: sha256.New()}
}

// readByte reads one byte, feeding the running checksum.
func (d *StreamDecoder) readByte() (byte, error) {
	b, err := d.r.ReadByte()
	if err != nil {
		return 0, eofIsUnexpected(err)
	}
	d.tmp[0] = b
	d.sum.Write(d.tmp[:1])
	return b, nil
}

func (d *StreamDecoder) uvarint() (uint64, error) {
	var v uint64
	for shift := uint(0); ; shift += 7 {
		if shift >= 64 {
			return 0, fmt.Errorf("wire: stream varint overflows")
		}
		b, err := d.readByte()
		if err != nil {
			return 0, err
		}
		v |= uint64(b&0x7f) << shift
		if b < 0x80 {
			return v, nil
		}
	}
}

func (d *StreamDecoder) readFull(p []byte) error {
	if _, err := io.ReadFull(d.r, p); err != nil {
		return eofIsUnexpected(err)
	}
	d.sum.Write(p)
	return nil
}

// frameStep is the buffer a frame body starts in. A length prefix is
// untrusted until the trailer verifies, so a frame's buffer doubles
// only once the bytes already read fill it: what a forged length costs
// grows with the bytes the peer actually sent, not with the length it
// claimed.
const frameStep = 64 << 10

func (d *StreamDecoder) prefixed(what string) ([]byte, error) {
	n, err := d.uvarint()
	if err != nil {
		return nil, fmt.Errorf("wire: stream %s length: %w", what, err)
	}
	if n > maxWireSlice {
		return nil, fmt.Errorf("wire: stream %s length %d exceeds limit", what, n)
	}
	b := make([]byte, min(int(n), frameStep))
	for off := 0; ; {
		m, err := io.ReadFull(d.r, b[off:])
		if err != nil {
			return nil, fmt.Errorf("wire: stream %s: %w", what, eofIsUnexpected(err))
		}
		if off += m; off == int(n) {
			break
		}
		grown := make([]byte, min(int(n), 2*off))
		copy(grown, b)
		b = grown
	}
	d.sum.Write(b)
	return b, nil
}

// eofIsUnexpected maps a clean EOF in the middle of a frame to
// io.ErrUnexpectedEOF, the class transports treat as a torn
// (retryable) read.
func eofIsUnexpected(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// Header decodes the stream header; it must be the first call.
func (d *StreamDecoder) Header() (StreamHeader, error) {
	if d.headerRead {
		return d.header, nil
	}
	magic := d.tmp[:len(streamMagic)]
	if err := d.readFull(magic); err != nil {
		return StreamHeader{}, fmt.Errorf("wire: stream magic: %w", err)
	}
	if !bytes.Equal(magic, streamMagic) {
		return StreamHeader{}, fmt.Errorf("wire: bad stream magic %q, want %q", magic, streamMagic)
	}
	if err := d.readFull(d.tmp[:8]); err != nil {
		return StreamHeader{}, fmt.Errorf("wire: stream epoch: %w", err)
	}
	d.header.Epoch = binary.BigEndian.Uint64(d.tmp[:8])
	gen, err := d.uvarint()
	if err != nil {
		return StreamHeader{}, fmt.Errorf("wire: stream generation: %w", err)
	}
	nf, err := d.uvarint()
	if err != nil {
		return StreamHeader{}, fmt.Errorf("wire: stream fragment count: %w", err)
	}
	nb, err := d.uvarint()
	if err != nil {
		return StreamHeader{}, fmt.Errorf("wire: stream block count: %w", err)
	}
	if nf > maxWireSlice || nb > maxWireSlice {
		return StreamHeader{}, fmt.Errorf("wire: stream counts %d/%d exceed limit", nf, nb)
	}
	d.header.Generation = gen
	d.header.Fragments, d.header.Blocks = int(nf), int(nb)
	d.fragLeft, d.blockLeft = int(nf), int(nb)
	d.headerRead = true
	return d.header, nil
}

// StreamChunk is one decoded frame.
type StreamChunk struct {
	Kind    byte // chunkFragment, chunkBlock or chunkTrailer
	BlockID int
	Data    []byte // fragment bytes or block ciphertext
	Proof   []byte // trailer only
}

// Fragment / Block / Trailer report the chunk's kind.
func (c StreamChunk) Fragment() bool { return c.Kind == chunkFragment }
func (c StreamChunk) Block() bool    { return c.Kind == chunkBlock }
func (c StreamChunk) Trailer() bool  { return c.Kind == chunkTrailer }

// Next decodes the next chunk. The trailer is returned after its
// checksum verified; any further call (and any byte after the
// trailer) is an error. Chunk sequence numbers must increase by one
// from zero — duplicated, dropped or reordered chunks are detected
// even before the trailer checksum would catch them.
func (d *StreamDecoder) Next() (StreamChunk, error) {
	if !d.headerRead {
		if _, err := d.Header(); err != nil {
			return StreamChunk{}, err
		}
	}
	if d.done {
		return StreamChunk{}, fmt.Errorf("wire: read past stream trailer")
	}
	tag, err := d.readByte()
	if err != nil {
		return StreamChunk{}, fmt.Errorf("wire: stream chunk tag: %w", err)
	}
	seq, err := d.uvarint()
	if err != nil {
		return StreamChunk{}, fmt.Errorf("wire: stream chunk seq: %w", err)
	}
	if seq != d.seq {
		return StreamChunk{}, fmt.Errorf("wire: stream chunk out of order: got seq %d, want %d", seq, d.seq)
	}
	d.seq++
	switch tag {
	case chunkFragment:
		if d.fragLeft == 0 {
			return StreamChunk{}, fmt.Errorf("wire: more fragments than the header announced")
		}
		d.fragLeft--
		data, err := d.prefixed("fragment")
		if err != nil {
			return StreamChunk{}, err
		}
		return StreamChunk{Kind: chunkFragment, Data: data}, nil
	case chunkBlock:
		if d.fragLeft > 0 {
			return StreamChunk{}, fmt.Errorf("wire: block chunk before the last announced fragment")
		}
		if d.blockLeft == 0 {
			return StreamChunk{}, fmt.Errorf("wire: more blocks than the header announced")
		}
		d.blockLeft--
		id, err := d.uvarint()
		if err != nil {
			return StreamChunk{}, fmt.Errorf("wire: stream block id: %w", err)
		}
		if id > maxWireSlice {
			return StreamChunk{}, fmt.Errorf("wire: stream block id %d exceeds limit", id)
		}
		data, err := d.prefixed("block")
		if err != nil {
			return StreamChunk{}, err
		}
		return StreamChunk{Kind: chunkBlock, BlockID: int(id), Data: data}, nil
	case chunkTrailer:
		if d.fragLeft > 0 || d.blockLeft > 0 {
			return StreamChunk{}, fmt.Errorf("wire: trailer before the last announced chunk (%d fragments, %d blocks missing)",
				d.fragLeft, d.blockLeft)
		}
		proof, err := d.prefixed("proof")
		if err != nil {
			return StreamChunk{}, err
		}
		want := d.sum.Sum(nil)
		var got [sha256.Size]byte
		if _, err := io.ReadFull(d.r, got[:]); err != nil {
			return StreamChunk{}, fmt.Errorf("wire: stream checksum: %w", eofIsUnexpected(err))
		}
		if !bytes.Equal(got[:], want) {
			return StreamChunk{}, fmt.Errorf("wire: stream checksum mismatch: %w", io.ErrUnexpectedEOF)
		}
		if _, err := d.r.ReadByte(); err != io.EOF {
			return StreamChunk{}, fmt.Errorf("wire: trailing bytes after stream trailer")
		}
		d.done = true
		return StreamChunk{Kind: chunkTrailer, Proof: proof}, nil
	default:
		return StreamChunk{}, fmt.Errorf("wire: unknown stream chunk tag %d", tag)
	}
}

// DecodeStreamAnswer consumes a whole chunked answer from r,
// invoking sink (when non-nil) with each block ciphertext the moment
// its frame decodes — before the stream has finished — and returns
// the assembled answer once the trailer checksum verified. On any
// error the partial answer is discarded; the caller never sees a
// truncated result. Mid-frame EOF surfaces as io.ErrUnexpectedEOF so
// transports classify it as a torn, retryable read.
func DecodeStreamAnswer(r io.Reader, sink func(id int, ct []byte)) (*Answer, error) {
	d := NewStreamDecoder(r)
	h, err := d.Header()
	if err != nil {
		return nil, err
	}
	a := &Answer{Epoch: h.Epoch, Generation: h.Generation}
	// The header's counts are untrusted until the trailer verifies:
	// they bound how many frames may follow, but preallocating from
	// them would let a 20-byte forged header commit gigabytes before
	// the first frame fails to parse. Cap the size hint; a genuine
	// large answer grows by appending as its frames actually arrive.
	const preallocCap = 4096
	if n := min(h.Fragments, preallocCap); n > 0 {
		a.Fragments = make([][]byte, 0, n)
	}
	if n := min(h.Blocks, preallocCap); n > 0 {
		a.BlockIDs = make([]int, 0, n)
		a.Blocks = make([][]byte, 0, n)
	}
	for {
		c, err := d.Next()
		if err != nil {
			return nil, err
		}
		switch {
		case c.Fragment():
			a.Fragments = append(a.Fragments, c.Data)
		case c.Block():
			a.BlockIDs = append(a.BlockIDs, c.BlockID)
			a.Blocks = append(a.Blocks, c.Data)
			if sink != nil {
				sink(c.BlockID, c.Data)
			}
		case c.Trailer():
			if len(c.Proof) > 0 {
				a.Proof = c.Proof
			}
			return a, nil
		}
	}
}
