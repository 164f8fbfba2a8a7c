package btree

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// key builds a key in band b.
func key(b uint8, low uint64) uint64 { return uint64(b)<<56 | low }

func TestEmptyTree(t *testing.T) {
	ix := NewIndex(nil)
	if ix.Len() != 0 {
		t.Errorf("empty index: len=%d", ix.Len())
	}
	if got := ix.RangeBlocks(0, ^uint64(0)); len(got) != 0 {
		t.Errorf("range on empty = %v", got)
	}
	if _, ok := ix.First(0, ^uint64(0)); ok {
		t.Errorf("First on empty")
	}
	if _, ok := ix.Last(0, ^uint64(0)); ok {
		t.Errorf("Last on empty")
	}
	if got := ix.Occupancy(0, ^uint64(0)); got != 0 {
		t.Errorf("Occupancy on empty = %d", got)
	}
	if got := ix.Entries(); len(got) != 0 {
		t.Errorf("Entries on empty = %v", got)
	}
}

func TestInsertAndSearch(t *testing.T) {
	keys := []uint64{50, 10, 90, 30, 70, 20, 80, 40, 60, 100, 5, 95}
	var entries []Entry
	for i, k := range keys {
		entries = append(entries, Entry{Key: key(uint8(i%3), k), BlockID: i})
	}
	ix := NewIndex(entries)
	if ix.Len() != len(keys) {
		t.Fatalf("Len = %d, want %d", ix.Len(), len(keys))
	}
	for i, e := range entries {
		if got := ix.RangeBlocks(e.Key, e.Key); len(got) != 1 || got[0] != i {
			t.Errorf("RangeBlocks(%x) = %v, want [%d]", e.Key, got, i)
		}
	}
	if got := ix.RangeBlocks(key(0, 55), key(0, 55)); len(got) != 0 {
		t.Errorf("RangeBlocks(55) = %v, want empty", got)
	}
	// NewIndex does not retain its input.
	entries[0].BlockID = 99
	if got := ix.RangeBlocks(key(0, 50), key(0, 50)); len(got) != 1 || got[0] != 0 {
		t.Errorf("index changed with its input: %v", got)
	}
}

func TestDuplicateKeys(t *testing.T) {
	var entries []Entry
	for i := 19; i >= 0; i-- {
		entries = append(entries, Entry{Key: 42, BlockID: i}, Entry{Key: 42, BlockID: i})
	}
	entries = append(entries, Entry{Key: 41, BlockID: 100}, Entry{Key: 43, BlockID: 101})
	ix := NewIndex(entries)
	if ix.Len() != 42 {
		t.Fatalf("Len = %d, want 42", ix.Len())
	}
	blocks := ix.RangeBlocks(42, 42)
	if len(blocks) != 20 || !slices.IsSorted(blocks) {
		t.Errorf("RangeBlocks dedup wrong: %v", blocks)
	}
	// Tied keys sit in block ID order: First takes the lowest, Last
	// the highest.
	if e, ok := ix.First(42, 42); !ok || e.BlockID != 0 {
		t.Errorf("First(42) = %v, %v", e, ok)
	}
	if e, ok := ix.Last(42, 42); !ok || e.BlockID != 19 {
		t.Errorf("Last(42) = %v, %v", e, ok)
	}
}

func TestRange(t *testing.T) {
	var entries []Entry
	for k := uint64(0); k < 100; k += 2 {
		entries = append(entries, Entry{Key: key(7, k), BlockID: int(k)})
	}
	ix := NewIndex(entries)
	if got, want := ix.RangeBlocks(key(7, 10), key(7, 20)), []int{10, 12, 14, 16, 18, 20}; !slices.Equal(got, want) {
		t.Fatalf("RangeBlocks(10,20) = %v, want %v", got, want)
	}
	// Bounds not in the index, and bounds outside the band.
	if got := ix.RangeBlocks(key(7, 11), key(7, 13)); !slices.Equal(got, []int{12}) {
		t.Errorf("RangeBlocks(11,13) = %v", got)
	}
	if got := ix.RangeBlocks(key(7, 98), key(9, 0)); !slices.Equal(got, []int{98}) {
		t.Errorf("RangeBlocks(98, band 9) = %v", got)
	}
	if got := ix.RangeBlocks(key(7, 30), key(7, 10)); got != nil {
		t.Errorf("inverted range = %v", got)
	}
}

func TestMinMax(t *testing.T) {
	ix := NewIndex([]Entry{{Key: key(3, 55)}, {Key: key(2, 3), BlockID: 1}, {Key: key(9, 99), BlockID: 2}, {Key: key(3, 12), BlockID: 3}})
	if mn, ok := ix.First(0, ^uint64(0)); !ok || mn.Key != key(2, 3) {
		t.Errorf("First = %v, %v", mn, ok)
	}
	if mx, ok := ix.Last(0, ^uint64(0)); !ok || mx.Key != key(9, 99) {
		t.Errorf("Last = %v, %v", mx, ok)
	}
	if mx, ok := ix.Last(key(3, 0), key(3, 50)); !ok || mx.Key != key(3, 12) {
		t.Errorf("Last in band 3 below 50 = %v, %v", mx, ok)
	}
	if _, ok := ix.First(key(4, 0), key(8, 0)); ok {
		t.Errorf("First over empty bands found an entry")
	}
}

// refIndex is the brute-force reference: every entry, in a flat list.
type refIndex []Entry

func (r refIndex) inRange(lo, hi uint64) []Entry {
	var out []Entry
	for _, e := range r {
		if e.Key >= lo && e.Key <= hi {
			out = append(out, e)
		}
	}
	slices.SortFunc(out, Compare)
	return out
}

// randomEntries draws n entries over a few bands and a small key
// domain, so duplicates — of keys and of whole entries — are common.
func randomEntries(r *rand.Rand, n int) []Entry {
	out := make([]Entry, n)
	for i := range out {
		out[i] = Entry{Key: key(uint8(r.Intn(4)), uint64(r.Intn(64))), BlockID: r.Intn(40)}
	}
	return out
}

// checkAgainst compares every lookup over [lo, hi] with a scan of ref.
func checkAgainst(t *testing.T, ix *Index, ref refIndex, lo, hi uint64) bool {
	t.Helper()
	want := ref.inRange(lo, hi)
	var wantBlocks []int
	for _, e := range want {
		wantBlocks = append(wantBlocks, e.BlockID)
	}
	slices.Sort(wantBlocks)
	wantBlocks = slices.Compact(wantBlocks)
	if got := ix.RangeBlocks(lo, hi); !slices.Equal(got, wantBlocks) {
		t.Logf("RangeBlocks(%x, %x) = %v, want %v", lo, hi, got, wantBlocks)
		return false
	}
	first, okF := ix.First(lo, hi)
	last, okL := ix.Last(lo, hi)
	if okF != (len(want) > 0) || okL != (len(want) > 0) {
		t.Logf("First/Last found %v/%v over %d entries", okF, okL, len(want))
		return false
	}
	if len(want) > 0 && (first != want[0] || last != want[len(want)-1]) {
		t.Logf("First/Last = %v/%v, want %v/%v", first, last, want[0], want[len(want)-1])
		return false
	}
	return true
}

// Property: range lookups, First and Last always match a scan of the
// flat entry list, under random keys (with duplicates), random bounds
// and ranges spanning several bands.
func TestQuickMatchesReference(t *testing.T) {
	f := func(seed int64, loRaw, hiRaw uint16) bool {
		r := rand.New(rand.NewSource(seed))
		ref := refIndex(randomEntries(r, r.Intn(300)+1))
		ix := NewIndex(ref)
		if ix.Len() != len(ref) {
			return false
		}
		for b := 0; b < NumBands; b++ {
			if !slices.IsSortedFunc(ix.Band(uint8(b)), Compare) {
				t.Logf("band %d not in canonical order", b)
				return false
			}
		}
		lo := key(uint8(loRaw%5), uint64(loRaw>>8)%70)
		hi := key(uint8(hiRaw%5), uint64(hiRaw>>8)%70)
		if lo > hi {
			lo, hi = hi, lo
		}
		return checkAgainst(t, ix, ref, lo, hi) && checkAgainst(t, ix, ref, hi, lo)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestCountMatchesRange: Len, Occupancy and Entries must agree with a
// count over the flat entry list for every window, across bands and
// duplicates.
func TestCountMatchesRange(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	ref := randomEntries(r, 500)
	ix := NewIndex(ref)
	if ix.Len() != len(ref) || len(ix.Entries()) != len(ref) {
		t.Fatalf("Len %d, Entries %d, want %d", ix.Len(), len(ix.Entries()), len(ref))
	}
	want := slices.Clone(ref)
	slices.SortFunc(want, Compare)
	if !slices.Equal(ix.Entries(), want) {
		t.Fatal("Entries is not the canonical concatenation of the bands")
	}
	windows := [][2]uint64{{0, 0}, {0, ^uint64(0)}, {key(1, 10), key(1, 20)}, {key(0, 63), key(2, 0)}, {key(3, 5), key(9, 0)}, {key(5, 0), key(7, 0)}, {key(2, 5), key(1, 3)}}
	for _, w := range windows {
		n := 0
		for _, e := range ref {
			if w[0] <= w[1] && Band(e.Key) >= Band(w[0]) && Band(e.Key) <= Band(w[1]) {
				n++
			}
		}
		if got := ix.Occupancy(w[0], w[1]); got != n {
			t.Errorf("Occupancy(%x, %x) = %d, want %d", w[0], w[1], got, n)
		}
		if got := len(refIndex(ref).inRange(w[0], w[1])); got > n {
			t.Errorf("window (%x, %x) holds %d entries, above its occupancy %d", w[0], w[1], got, n)
		}
	}
}

// TestWithSharesUntouchedBands: With replaces exactly the named
// bands, leaves the receiver as it was, and shares every other band's
// backing array with it; the result answers like an index built from
// scratch over the same entries.
func TestWithSharesUntouchedBands(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	base := randomEntries(r, 400)
	ix := NewIndex(base)
	before := ix.Entries()

	run := []Entry{{Key: key(1, 7), BlockID: 3}, {Key: key(1, 7), BlockID: 5}, {Key: key(1, 9), BlockID: 1}}
	next := ix.With(map[uint8][]Entry{1: run, 2: nil})

	if !slices.Equal(ix.Entries(), before) {
		t.Fatal("With modified the receiver")
	}
	for b := 0; b < NumBands; b++ {
		old, cur := ix.Band(uint8(b)), next.Band(uint8(b))
		switch b {
		case 1:
			if !slices.Equal(cur, run) {
				t.Fatalf("band 1 = %v, want %v", cur, run)
			}
		case 2:
			if len(cur) != 0 {
				t.Fatalf("band 2 not emptied: %v", cur)
			}
		default:
			if len(old) > 0 && &old[0] != &cur[0] || len(old) != len(cur) {
				t.Fatalf("untouched band %d not shared", b)
			}
		}
	}
	var flat refIndex
	for _, e := range base {
		if b := Band(e.Key); b != 1 && b != 2 {
			flat = append(flat, e)
		}
	}
	flat = append(flat, run...)
	if next.Len() != len(flat) {
		t.Fatalf("Len = %d, want %d", next.Len(), len(flat))
	}
	if !checkAgainst(t, next, flat, 0, ^uint64(0)) || !checkAgainst(t, next, flat, key(0, 30), key(1, 8)) {
		t.Fatal("replaced index disagrees with a scan")
	}
}
