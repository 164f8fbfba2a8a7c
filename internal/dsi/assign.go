package dsi

import (
	"strconv"

	"repro/internal/cryptoprim"
	"repro/internal/xmltree"
)

// Assignment maps every element and attribute node of a document to
// its DSI interval. Text nodes carry no interval (values are indexed
// by the value index instead).
type Assignment map[*xmltree.Node]Interval

// Assign computes the DSI index of a document with the algorithm of
// Figure 3: the root receives [0, 1]; the i-th of N children of a
// node with interval [min, max] receives
//
//	d      = (max-min) / (2N+1)
//	min_i  = min + (2i-1)·d - w1_i·d
//	max_i  = min + 2i·d     + w2_i·d
//
// with weights w1_i, w2_i ∈ (0, 0.5) drawn pseudo-randomly per node
// from the client's key set, so gaps between adjacent children — and
// between each child and its parent's bounds — are positive but
// unpredictable to the server.
func Assign(doc *xmltree.Document, keys *cryptoprim.KeySet) Assignment {
	asg := make(Assignment, doc.Size())
	if doc.Root == nil {
		return asg
	}
	asg[doc.Root] = Interval{0, 1}
	assignChildren(doc.Root, Interval{0, 1}, keys, asg)
	return asg
}

func assignChildren(p *xmltree.Node, iv Interval, keys *cryptoprim.KeySet, asg Assignment) {
	children := indexableChildren(p)
	n := len(children)
	if n == 0 {
		return
	}
	d := (iv.Hi - iv.Lo) / float64(2*n+1)
	sig := strconv.Itoa(p.ID)
	for i, c := range children {
		w1 := keys.DSIWeight(sig, i, 1)
		w2 := keys.DSIWeight(sig, i, 2)
		ci := Interval{
			Lo: iv.Lo + float64(2*(i+1)-1)*d - w1*d,
			Hi: iv.Lo + float64(2*(i+1))*d + w2*d,
		}
		asg[c] = ci
		assignChildren(c, ci, keys, asg)
	}
}

// indexableChildren returns the children that receive intervals:
// attributes and elements, in document order.
func indexableChildren(p *xmltree.Node) []*xmltree.Node {
	var out []*xmltree.Node
	for _, c := range p.Children {
		if c.Kind != xmltree.Text {
			out = append(out, c)
		}
	}
	return out
}
