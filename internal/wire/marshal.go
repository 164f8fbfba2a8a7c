package wire

// Binary serialization of the hosted database, translated queries
// and answers — the actual bytes that cross the client/server trust
// boundary when the two roles run in separate processes (see
// internal/remote). The format is explicit and versioned; it
// contains exactly the fields of the in-memory structures, so the
// security analysis of what the server sees applies verbatim to the
// wire.
//
// Layout conventions: all integers are unsigned varints except where
// noted; byte slices and strings are length-prefixed; float64s are
// IEEE-754 bits, fixed 8 bytes.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"

	"repro/internal/btree"
	"repro/internal/dsi"
	"repro/internal/opess"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// Format magics. There is one query frame, SXQ2, which always carries
// its want-proof byte; answers are SXS1 streams (stream.go). A query
// frame with zero main-path steps is a value-index probe: its steps are
// followed by the probe's bounds (fixed u64 each) and max byte.
var (
	dbMagic    = []byte("SXDB1")
	queryMagic = []byte("SXQ2")
)

type writer struct {
	buf bytes.Buffer
	tmp [binary.MaxVarintLen64]byte
}

// writerPool recycles marshal buffers across frames. Aliasing rule:
// finish() copies the encoded bytes out exact-size before the buffer
// is pooled again, so no returned frame ever aliases pool memory.
var writerPool = sync.Pool{New: func() any { return new(writer) }}

// writerMaxCap bounds the capacity a pooled writer may retain; a
// one-off giant frame (a whole hosted DB) must not pin its buffer.
const writerMaxCap = 4 << 20

func getWriter() *writer {
	w := writerPool.Get().(*writer)
	w.buf.Reset()
	return w
}

// finish returns the encoded frame as an exactly-sized fresh slice
// and recycles the writer.
func (w *writer) finish() []byte {
	out := append(make([]byte, 0, w.buf.Len()), w.buf.Bytes()...)
	if w.buf.Cap() <= writerMaxCap {
		writerPool.Put(w)
	}
	return out
}

func (w *writer) uvarint(v uint64) {
	n := binary.PutUvarint(w.tmp[:], v)
	w.buf.Write(w.tmp[:n])
}

func (w *writer) u64(v uint64) {
	binary.BigEndian.PutUint64(w.tmp[:8], v)
	w.buf.Write(w.tmp[:8])
}

func (w *writer) f64(v float64)   { w.u64(math.Float64bits(v)) }
func (w *writer) bytes(b []byte)  { w.uvarint(uint64(len(b))); w.buf.Write(b) }
func (w *writer) string(s string) { w.bytes([]byte(s)) }
func (w *writer) bool(b bool) {
	if b {
		w.buf.WriteByte(1)
	} else {
		w.buf.WriteByte(0)
	}
}

type reader struct {
	r *bytes.Reader
}

func (r *reader) uvarint() (uint64, error) { return binary.ReadUvarint(r.r) }

func (r *reader) u64() (uint64, error) {
	var b [8]byte
	if _, err := io.ReadFull(r.r, b[:]); err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint64(b[:]), nil
}

func (r *reader) f64() (float64, error) {
	u, err := r.u64()
	if err != nil {
		return 0, err
	}
	return math.Float64frombits(u), nil
}

// interval reads a DSI interval, rejecting any outside
// 0 <= Lo < Hi <= 1 (NaN and ±Inf bounds fail every comparison): the
// server's node table assumes every interval it holds is one.
func (r *reader) interval() (dsi.Interval, error) {
	lo, err := r.f64()
	if err != nil {
		return dsi.Interval{}, err
	}
	hi, err := r.f64()
	if err != nil {
		return dsi.Interval{}, err
	}
	if !(0 <= lo && lo < hi && hi <= 1) {
		return dsi.Interval{}, fmt.Errorf("wire: invalid DSI interval [%v, %v]", lo, hi)
	}
	return dsi.Interval{Lo: lo, Hi: hi}, nil
}

// maxWireSlice caps decoded slice lengths to keep a corrupted or
// malicious length prefix from exhausting memory.
const maxWireSlice = 1 << 28

func (r *reader) bytesN() ([]byte, error) {
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if n > maxWireSlice {
		return nil, fmt.Errorf("wire: slice length %d exceeds limit", n)
	}
	if n > uint64(r.r.Len()) {
		return nil, fmt.Errorf("wire: slice length %d with %d bytes left: %w", n, r.r.Len(), io.ErrUnexpectedEOF)
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(r.r, b); err != nil {
		return nil, err
	}
	return b, nil
}

func (r *reader) string() (string, error) {
	b, err := r.bytesN()
	return string(b), err
}

func (r *reader) bool() (bool, error) {
	b, err := r.r.ReadByte()
	return b != 0, err
}

func (r *reader) count(what string) (int, error) {
	n, err := r.uvarint()
	if err != nil {
		return 0, fmt.Errorf("wire: %s count: %w", what, err)
	}
	if n > maxWireSlice {
		return 0, fmt.Errorf("wire: %s count %d exceeds limit", what, n)
	}
	return int(n), nil
}

// countOf is count for elements that each encode to at least elem
// bytes: a count the rest of the input cannot hold is rejected before
// the caller allocates for it.
func (r *reader) countOf(what string, elem int) (int, error) {
	n, err := r.count(what)
	if err != nil {
		return 0, err
	}
	if n > r.r.Len()/elem {
		return 0, fmt.Errorf("wire: %s count %d with %d bytes left: %w", what, n, r.r.Len(), io.ErrUnexpectedEOF)
	}
	return n, nil
}

func expectMagic(r *bytes.Reader, magic []byte) error {
	got := make([]byte, len(magic))
	if _, err := io.ReadFull(r, got); err != nil {
		return fmt.Errorf("wire: short magic: %w", err)
	}
	if !bytes.Equal(got, magic) {
		return fmt.Errorf("wire: bad magic %q, want %q", got, magic)
	}
	return nil
}

// MarshalDB serializes a hosted database.
func MarshalDB(h *HostedDB) ([]byte, error) {
	w := getWriter()
	w.db(h)
	return w.finish(), nil
}

// db appends h's SXDB1 frame: the upload body, and the inside of a
// snapshot.
func (w *writer) db(h *HostedDB) {
	w.buf.Write(dbMagic)

	// Residue: serialized XML plus, per residue element/attribute in
	// document order, its interval.
	w.string(h.Residue.String())
	type nodeIv struct {
		id int
		iv dsi.Interval
	}
	var ivs []nodeIv
	for n, iv := range h.ResidueIntervals {
		ivs = append(ivs, nodeIv{id: n.ID, iv: iv})
	}
	// Document order keeps the encoding canonical.
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].id < ivs[j].id })
	w.uvarint(uint64(len(ivs)))
	for _, e := range ivs {
		w.uvarint(uint64(e.id))
		w.f64(e.iv.Lo)
		w.f64(e.iv.Hi)
	}

	// DSI table.
	labels := make([]string, 0, len(h.Table.ByTag))
	for l := range h.Table.ByTag {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	w.uvarint(uint64(len(labels)))
	for _, l := range labels {
		w.string(l)
		entries := h.Table.ByTag[l]
		w.uvarint(uint64(len(entries)))
		for _, iv := range entries {
			w.f64(iv.Lo)
			w.f64(iv.Hi)
		}
	}

	// Block table and ciphertext blocks.
	w.uvarint(uint64(len(h.BlockReps)))
	for _, iv := range h.BlockReps {
		w.f64(iv.Lo)
		w.f64(iv.Hi)
	}
	w.uvarint(uint64(len(h.Blocks)))
	for _, b := range h.Blocks {
		w.bytes(b)
	}

	// Value index entries.
	w.uvarint(uint64(len(h.IndexEntries)))
	for _, e := range h.IndexEntries {
		w.u64(e.Key)
		w.uvarint(uint64(e.BlockID))
	}
}

// UnmarshalDB reverses MarshalDB.
func UnmarshalDB(data []byte) (*HostedDB, error) {
	r := &reader{r: bytes.NewReader(data)}
	if err := expectMagic(r.r, dbMagic); err != nil {
		return nil, err
	}
	h := &HostedDB{ResidueIntervals: map[*xmltree.Node]dsi.Interval{}}

	resXML, err := r.string()
	if err != nil {
		return nil, fmt.Errorf("wire: residue: %w", err)
	}
	h.Residue, err = xmltree.ParseCompact([]byte(resXML))
	if err != nil {
		return nil, fmt.Errorf("wire: residue: %w", err)
	}
	n, err := r.countOf("residue interval", 17)
	if err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		id, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		iv, err := r.interval()
		if err != nil {
			return nil, err
		}
		node := h.Residue.NodeByID(int(id))
		if node == nil {
			return nil, fmt.Errorf("wire: residue interval for unknown node %d", id)
		}
		h.ResidueIntervals[node] = iv
	}

	nLabels, err := r.countOf("label", 2)
	if err != nil {
		return nil, err
	}
	h.Table = &dsi.Table{ByTag: make(map[string][]dsi.Interval, nLabels)}
	for i := 0; i < nLabels; i++ {
		label, err := r.string()
		if err != nil {
			return nil, err
		}
		nIvs, err := r.countOf("table interval", 16)
		if err != nil {
			return nil, err
		}
		ivs := make([]dsi.Interval, nIvs)
		for j := range ivs {
			if ivs[j], err = r.interval(); err != nil {
				return nil, err
			}
		}
		h.Table.ByTag[label] = ivs
	}

	nReps, err := r.countOf("block rep", 16)
	if err != nil {
		return nil, err
	}
	h.BlockReps = make([]dsi.Interval, nReps)
	for i := range h.BlockReps {
		if h.BlockReps[i], err = r.interval(); err != nil {
			return nil, err
		}
	}
	nBlocks, err := r.countOf("block", 1)
	if err != nil {
		return nil, err
	}
	h.Blocks = make([][]byte, nBlocks)
	for i := range h.Blocks {
		if h.Blocks[i], err = r.bytesN(); err != nil {
			return nil, err
		}
	}

	nEntries, err := r.countOf("index entry", minIndexEntryBytes)
	if err != nil {
		return nil, err
	}
	h.IndexEntries = make([]btree.Entry, nEntries)
	for i := range h.IndexEntries {
		if h.IndexEntries[i].Key, err = r.u64(); err != nil {
			return nil, err
		}
		bid, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		h.IndexEntries[i].BlockID = int(bid)
	}
	if r.r.Len() != 0 {
		return nil, fmt.Errorf("wire: %d trailing bytes", r.r.Len())
	}
	return h, nil
}

// Predicate type tags for query encoding.
const (
	predExists byte = 1
	predValue  byte = 2
	predAnd    byte = 3
	predOr     byte = 4
	predNot    byte = 5
	predPos    byte = 6
)

// MarshalQuery serializes a translated query.
func MarshalQuery(q *Query) ([]byte, error) {
	if q.Probe != nil && q.First != nil {
		return nil, fmt.Errorf("wire: a probe query has no steps")
	}
	w := getWriter()
	w.buf.Write(queryMagic)
	w.bool(q.WantProof)
	if err := writeSteps(w, q.First); err != nil {
		return nil, err
	}
	if p := q.Probe; p != nil {
		w.u64(p.Lo)
		w.u64(p.Hi)
		w.bool(p.Max)
	}
	return w.finish(), nil
}

func writeSteps(w *writer, first *QStep) error {
	var steps []*QStep
	for s := first; s != nil; s = s.Next {
		steps = append(steps, s)
	}
	w.uvarint(uint64(len(steps)))
	for _, s := range steps {
		w.uvarint(uint64(s.Axis))
		w.bool(s.Desc)
		if s.Labels == nil {
			w.bool(false)
		} else {
			w.bool(true)
			w.uvarint(uint64(len(s.Labels)))
			for _, l := range s.Labels {
				w.string(l)
			}
		}
		w.uvarint(uint64(len(s.Preds)))
		for _, p := range s.Preds {
			if err := writePred(w, p); err != nil {
				return err
			}
		}
	}
	return nil
}

func writePred(w *writer, p QPred) error {
	switch v := p.(type) {
	case *PredExists:
		w.buf.WriteByte(predExists)
		return writeSteps(w, v.Path)
	case *PredValue:
		w.buf.WriteByte(predValue)
		if err := writeSteps(w, v.Path); err != nil {
			return err
		}
		w.bool(v.Plain)
		w.uvarint(uint64(v.Op))
		w.string(v.Lit)
		w.uvarint(uint64(len(v.Ranges)))
		for _, rg := range v.Ranges {
			w.u64(rg.Lo)
			w.u64(rg.Hi)
		}
		return nil
	case *PredAnd:
		w.buf.WriteByte(predAnd)
		if err := writePred(w, v.L); err != nil {
			return err
		}
		return writePred(w, v.R)
	case *PredOr:
		w.buf.WriteByte(predOr)
		if err := writePred(w, v.L); err != nil {
			return err
		}
		return writePred(w, v.R)
	case *PredNot:
		w.buf.WriteByte(predNot)
		return writePred(w, v.E)
	case *PredPos:
		w.buf.WriteByte(predPos)
		w.uvarint(uint64(v.N))
		return nil
	default:
		return fmt.Errorf("wire: unknown predicate %T", p)
	}
}

// IsQueryFrame reports whether data starts with a query-frame magic,
// i.e. could plausibly be a marshaled query. It lets transports
// reject garbage cheaply (without a full parse) before handing the
// frame to the server's fingerprint-keyed caches.
func IsQueryFrame(data []byte) bool {
	return bytes.HasPrefix(data, queryMagic)
}

// UnmarshalQuery reverses MarshalQuery.
func UnmarshalQuery(data []byte) (*Query, error) {
	r := &reader{r: bytes.NewReader(data)}
	if err := expectMagic(r.r, queryMagic); err != nil {
		return nil, err
	}
	wp, err := r.bool()
	if err != nil {
		return nil, fmt.Errorf("wire: want-proof flag: %w", err)
	}
	q := &Query{WantProof: wp}
	if q.First, err = readSteps(r); err != nil {
		return nil, err
	}
	if q.First == nil {
		p := &Probe{}
		if p.Lo, err = r.u64(); err != nil {
			return nil, fmt.Errorf("wire: probe: %w", err)
		}
		if p.Hi, err = r.u64(); err != nil {
			return nil, fmt.Errorf("wire: probe: %w", err)
		}
		if p.Max, err = r.bool(); err != nil {
			return nil, fmt.Errorf("wire: probe: %w", err)
		}
		q.Probe = p
	}
	if r.r.Len() != 0 {
		return nil, fmt.Errorf("wire: %d trailing bytes", r.r.Len())
	}
	return q, nil
}

func readSteps(r *reader) (*QStep, error) {
	n, err := r.count("step")
	if err != nil {
		return nil, err
	}
	var first, last *QStep
	for i := 0; i < n; i++ {
		axis, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		desc, err := r.bool()
		if err != nil {
			return nil, err
		}
		st := &QStep{Axis: xpath.Axis(axis), Desc: desc}
		hasLabels, err := r.bool()
		if err != nil {
			return nil, err
		}
		if hasLabels {
			nl, err := r.countOf("label", 1)
			if err != nil {
				return nil, err
			}
			st.Labels = make([]string, 0, nl)
			for j := 0; j < nl; j++ {
				l, err := r.string()
				if err != nil {
					return nil, err
				}
				st.Labels = append(st.Labels, l)
			}
		}
		np, err := r.count("pred")
		if err != nil {
			return nil, err
		}
		for j := 0; j < np; j++ {
			p, err := readPred(r)
			if err != nil {
				return nil, err
			}
			st.Preds = append(st.Preds, p)
		}
		if first == nil {
			first = st
		} else {
			last.Next = st
		}
		last = st
	}
	return first, nil
}

func readPred(r *reader) (QPred, error) {
	kind, err := r.r.ReadByte()
	if err != nil {
		return nil, err
	}
	switch kind {
	case predExists:
		path, err := readSteps(r)
		if err != nil {
			return nil, err
		}
		return &PredExists{Path: path}, nil
	case predValue:
		path, err := readSteps(r)
		if err != nil {
			return nil, err
		}
		pv := &PredValue{Path: path}
		if pv.Plain, err = r.bool(); err != nil {
			return nil, err
		}
		op, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		pv.Op = xpath.Op(op)
		if pv.Lit, err = r.string(); err != nil {
			return nil, err
		}
		nr, err := r.count("range")
		if err != nil {
			return nil, err
		}
		for j := 0; j < nr; j++ {
			var rg opess.Range
			if rg.Lo, err = r.u64(); err != nil {
				return nil, err
			}
			if rg.Hi, err = r.u64(); err != nil {
				return nil, err
			}
			pv.Ranges = append(pv.Ranges, rg)
		}
		return pv, nil
	case predAnd, predOr:
		l, err := readPred(r)
		if err != nil {
			return nil, err
		}
		rr, err := readPred(r)
		if err != nil {
			return nil, err
		}
		if kind == predAnd {
			return &PredAnd{L: l, R: rr}, nil
		}
		return &PredOr{L: l, R: rr}, nil
	case predNot:
		e, err := readPred(r)
		if err != nil {
			return nil, err
		}
		return &PredNot{E: e}, nil
	case predPos:
		n, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		return &PredPos{N: int(n)}, nil
	default:
		return nil, fmt.Errorf("wire: unknown predicate tag %d", kind)
	}
}
