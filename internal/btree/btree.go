// Package btree is the server's value index (§5.2): data entries are
// ⟨evalue, Bid⟩ pairs mapping an OPESS ciphertext value to the ID of
// an encryption block containing an occurrence of it, and the index
// answers the translated range lookups of Figure 7(a) and the
// single-probe MIN/MAX of §6.4.
//
// The paper places a B+-tree here. OPESS confines every indexed
// attribute to one band — the top byte of its keys — and an update
// re-issues whole bands, so the index is the leaf level of a
// bulk-loaded B+-tree without its inner nodes: one sorted run per
// band, in the canonical (key, block ID) order. Duplicate keys are
// kept (scaling replicates entries). A range lookup is a binary search
// per band the range touches, MIN/MAX one probe, and the Merkle
// prover hashes each run as it stands. An Index is immutable: an
// update publishes a new one that replaces the re-issued bands and
// shares every other run with its predecessor.
package btree

import (
	"cmp"
	"slices"
	"sort"
)

// Entry is one data entry of the value index.
type Entry struct {
	Key     uint64 // OPESS ciphertext value
	BlockID int    // encryption block containing an occurrence
}

// NumBands is the number of OPESS bands: one per value of a key's top
// byte.
const NumBands = 256

// Band returns the OPESS band of a key: its top byte.
func Band(key uint64) uint8 { return uint8(key >> 56) }

// Compare is the canonical entry order: by key, then block ID.
func Compare(a, b Entry) int {
	if c := cmp.Compare(a.Key, b.Key); c != 0 {
		return c
	}
	return cmp.Compare(a.BlockID, b.BlockID)
}

// SortBand puts a band's entries in canonical order in place. Input
// already in that order (what the owner emits) is only checked.
func SortBand(entries []Entry) {
	if !slices.IsSortedFunc(entries, Compare) {
		slices.SortFunc(entries, Compare)
	}
}

// Index is the value index: one canonical run per band.
type Index struct {
	bands [NumBands][]Entry
	n     int
}

// NewIndex buckets entries by band into a fresh index; entries is not
// retained.
func NewIndex(entries []Entry) *Index {
	var counts [NumBands]int
	for _, e := range entries {
		counts[Band(e.Key)]++
	}
	ix := &Index{n: len(entries)}
	for b, c := range counts {
		if c > 0 {
			ix.bands[b] = make([]Entry, 0, c)
		}
	}
	for _, e := range entries {
		b := Band(e.Key)
		ix.bands[b] = append(ix.bands[b], e)
	}
	for _, run := range ix.bands {
		SortBand(run)
	}
	return ix
}

// Len returns the number of entries.
func (ix *Index) Len() int { return ix.n }

// Band returns band b's run in canonical order. Callers must not
// modify it.
func (ix *Index) Band(b uint8) []Entry { return ix.bands[b] }

// Entries returns every entry, band by band, in canonical order, as a
// fresh slice.
func (ix *Index) Entries() []Entry {
	out := make([]Entry, 0, ix.n)
	for _, run := range ix.bands {
		out = append(out, run...)
	}
	return out
}

// With returns a new index in which each band named in replaced holds
// the given run (nil empties it). Every run must already be in
// canonical order and is retained, so the caller must not modify it
// afterwards. Bands not named are shared with ix, which is unchanged.
func (ix *Index) With(replaced map[uint8][]Entry) *Index {
	next := *ix
	for b, run := range replaced {
		next.n += len(run) - len(next.bands[b])
		next.bands[b] = run
	}
	return &next
}

// span returns the positions [i, j) of run's entries with
// lo <= Key <= hi.
func span(run []Entry, lo, hi uint64) (int, int) {
	i := sort.Search(len(run), func(k int) bool { return run[k].Key >= lo })
	j := i + sort.Search(len(run)-i, func(k int) bool { return run[i+k].Key > hi })
	return i, j
}

// bandsOf returns the bands a range [lo, hi] touches.
func bandsOf(lo, hi uint64) (int, int) { return int(Band(lo)), int(Band(hi)) }

// RangeBlocks returns the deduplicated block IDs of entries in
// [lo, hi], in ascending order — the set the server fetches for a
// translated value constraint.
func (ix *Index) RangeBlocks(lo, hi uint64) []int {
	if lo > hi {
		return nil
	}
	var out []int
	first, last := bandsOf(lo, hi)
	for b := first; b <= last; b++ {
		run := ix.bands[b]
		i, j := span(run, lo, hi)
		for _, e := range run[i:j] {
			out = append(out, e.BlockID)
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// First returns the smallest entry with lo <= Key <= hi.
func (ix *Index) First(lo, hi uint64) (Entry, bool) {
	if lo > hi {
		return Entry{}, false
	}
	first, last := bandsOf(lo, hi)
	for b := first; b <= last; b++ {
		run := ix.bands[b]
		if i, j := span(run, lo, hi); i < j {
			return run[i], true
		}
	}
	return Entry{}, false
}

// Last returns the largest entry with lo <= Key <= hi.
func (ix *Index) Last(lo, hi uint64) (Entry, bool) {
	if lo > hi {
		return Entry{}, false
	}
	first, last := bandsOf(lo, hi)
	for b := last; b >= first; b-- {
		run := ix.bands[b]
		if i, j := span(run, lo, hi); i < j {
			return run[j-1], true
		}
	}
	return Entry{}, false
}

// Occupancy returns the number of entries in the bands [lo, hi]
// touches — an upper bound on the entries in [lo, hi], read off the
// run lengths without a search. It is the planner's and the admission
// gate's selectivity currency: translated comparisons clamp to one
// band, so the bound is that band's size.
func (ix *Index) Occupancy(lo, hi uint64) int {
	if lo > hi {
		return 0
	}
	n := 0
	first, last := bandsOf(lo, hi)
	for b := first; b <= last; b++ {
		n += len(ix.bands[b])
	}
	return n
}
