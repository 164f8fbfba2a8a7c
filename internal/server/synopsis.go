package server

import (
	"repro/internal/btree"
	"repro/internal/opess"
)

// The structure synopsis has two halves with different lifetimes:
//
//   - The structural half is the strong-DataGuide path-class summary
//     (dsi.Guide) over the DSI table. Updates in this extension are
//     value-level and structure-preserving, so it is built once in
//     New, stored on the shared immutable structure, and reused by
//     every snapshot. The planner's holistic twig matcher walks it to
//     prune whole path classes before any interval work.
//
//   - The value half is the OPESS band occupancy of the snapshot's
//     value index: the length of each band's run, read off the index
//     itself (btree.Index.Occupancy), so it moves with every update
//     for free and cannot drift from the index.

// occupancy returns the index's upper bound on how many entries the
// ranges can touch: the full occupancy of every band a range
// overlaps. Translated comparisons clamp to one band, so the bound is
// the band total — coarser than an exact range count but O(ranges),
// which is what admission pricing and plan-time selectivity ordering
// want.
func occupancy(ix *btree.Index, ranges []opess.Range) int {
	n := 0
	for _, r := range ranges {
		n += ix.Occupancy(r.Lo, r.Hi)
	}
	return n
}

// SynopsisStats describes the synopsis for the stats endpoint.
type SynopsisStats struct {
	// Classes is the number of guide path classes (0 when the hosted
	// table yielded no usable guide and the planner runs pairwise).
	Classes int `json:"classes"`
	// IndexEntries is the current snapshot's value-index size.
	IndexEntries int `json:"indexEntries"`
	// OccupiedBands counts bands with at least one entry.
	OccupiedBands int `json:"occupiedBands"`
}

// Synopsis reports the current snapshot's synopsis shape.
func (s *Server) Synopsis() SynopsisStats {
	sn := s.current()
	out := SynopsisStats{IndexEntries: sn.index.Len()}
	if sn.st.guide != nil {
		out.Classes = sn.st.guide.NumClasses()
	}
	for b := 0; b < btree.NumBands; b++ {
		if len(sn.index.Band(uint8(b))) > 0 {
			out.OccupiedBands++
		}
	}
	return out
}
