package dsi

import (
	"fmt"
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
//
// Every level spends about log2(2N+1) of a float64's bits, so a deep
// or wide enough document runs out of them. Assign checks each child
// as it assigns it — nonempty, strictly inside its parent and strictly
// after its previous sibling — and fails, naming the depth and the
// fan-out, rather than hand the server intervals that collapse onto
// each other.
func Assign(doc *xmltree.Document, keys *cryptoprim.KeySet) (Assignment, error) {
	asg := make(Assignment, doc.Size())
	if doc.Root == nil {
		return asg, nil
	}
	asg[doc.Root] = Interval{0, 1}
	return asg, assignChildren(doc.Root, Interval{0, 1}, 1, keys, asg)
}

func assignChildren(p *xmltree.Node, iv Interval, depth int, keys *cryptoprim.KeySet, asg Assignment) error {
	children := indexableChildren(p)
	n := len(children)
	if n == 0 {
		return nil
	}
	d := (iv.Hi - iv.Lo) / float64(2*n+1)
	sig := strconv.Itoa(p.ID)
	prevHi := iv.Lo
	for i, c := range children {
		w1 := keys.DSIWeight(sig, i, 1)
		w2 := keys.DSIWeight(sig, i, 2)
		ci := Interval{
			Lo: iv.Lo + float64(2*(i+1)-1)*d - w1*d,
			Hi: iv.Lo + float64(2*(i+1))*d + w2*d,
		}
		if !(prevHi < ci.Lo && ci.Lo < ci.Hi && ci.Hi < iv.Hi) {
			return fmt.Errorf("dsi: interval of child %d of %d at depth %d does not fit its parent %v: %v (float64 bounds exhausted)",
				i+1, n, depth, iv, ci)
		}
		prevHi = ci.Hi
		asg[c] = ci
		if err := assignChildren(c, ci, depth+1, keys, asg); err != nil {
			return err
		}
	}
	return nil
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
