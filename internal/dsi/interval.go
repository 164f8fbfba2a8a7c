// Package dsi implements the paper's discontinuous structural
// interval index (§5.1): every element and attribute node is
// assigned a subinterval of its parent's interval with random gaps
// on both sides (Figure 3), so that — unlike the classical
// continuous interval scheme — grouping adjacent same-tag intervals
// in the index table leaves the server unable to tell how many nodes
// an interval represents or whether grouping happened at all.
//
// The package also builds the two metadata tables placed on the
// server (§5.1.1): the DSI index table (tag, encrypted when the node
// is encrypted, → grouped intervals) and the encryption block table
// (representative interval → block ID). For the server it builds one
// node table (Forest): the table's distinct intervals numbered in
// pre-order, with parent, last-descendant and label columns and
// per-label member lists, from which the structural joins and the
// planner's guide read.
package dsi

import (
	"fmt"
	"slices"
)

// Interval is a DSI index entry [Lo, Hi] ⊂ [0, 1]. Intervals of a
// document form a laminar family: two intervals are either disjoint
// or one strictly contains the other.
type Interval struct {
	Lo, Hi float64
}

func (iv Interval) String() string { return fmt.Sprintf("[%.9f, %.9f]", iv.Lo, iv.Hi) }

// StrictlyContains reports that o lies strictly inside iv.
func (iv Interval) StrictlyContains(o Interval) bool {
	return iv.Lo < o.Lo && o.Hi < iv.Hi
}

// Merge returns the interval spanning a run of grouped siblings:
// lower bound of the leftmost, upper bound of the rightmost (§5.1.1).
func Merge(ivs []Interval) Interval {
	out := ivs[0]
	for _, iv := range ivs[1:] {
		if iv.Lo < out.Lo {
			out.Lo = iv.Lo
		}
		if iv.Hi > out.Hi {
			out.Hi = iv.Hi
		}
	}
	return out
}

// SortIntervals orders intervals by (Lo asc, Hi desc) so a container
// precedes everything it contains; the order is also document order
// for disjoint intervals.
func SortIntervals(ivs []Interval) {
	slices.SortFunc(ivs, compareIntervals)
}
