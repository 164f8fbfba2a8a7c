package datagen

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/xmltree"
)

// QueryClass selects one of the paper's three query shapes (§7.1).
type QueryClass int

const (
	// Qs queries output the children of the document root.
	Qs QueryClass = iota
	// Qm queries output nodes halfway down the document tree: level
	// (h+2)/2, and at least level 3, one below Qs.
	Qm
	// Ql queries output leaf nodes.
	Ql
)

func (c QueryClass) String() string {
	switch c {
	case Qs:
		return "Qs"
	case Qm:
		return "Qm"
	case Ql:
		return "Ql"
	default:
		return fmt.Sprintf("QueryClass(%d)", int(c))
	}
}

// Queries generates n XPath queries of the given class against doc,
// per §7.1: the output node's level is fixed by the class, and
// queries alternate between pure structural paths and paths with a
// value predicate drawn from an actual document value (so results
// are non-empty). When the class has fewer output tags than queries
// (NASA's Qs has one), a query already drawn gets a fresh value
// predicate, drawn from any instance of its tag, so the class still
// asks distinct queries. Deterministic per seed.
//
// Levels are 1-based from the root, so Qs outputs level 2. Qm's level
// (h+2)/2, at least 3, lies in [3, h−1] on a document of depth h ≥ 4
// (3 on NASA's depth 4 and XMark's 5); a shallower document has no
// level between Qs and its leaves, and gets no Qm queries.
func Queries(doc *xmltree.Document, class QueryClass, n int, seed uint64) []string {
	r := NewRand(seed)
	targetLevel := 2
	switch class {
	case Qm:
		targetLevel = max(3, (doc.Depth()+2)/2)
	case Ql:
		targetLevel = 0 // any leaf
	}

	// Collect candidate output tags with every instance of each.
	type cand struct {
		tag       string
		instances []*xmltree.Node
	}
	byTag := map[string]int{}
	var cands []cand
	for _, node := range doc.Nodes() {
		if node.Kind != xmltree.Element {
			continue
		}
		ok := false
		if class == Ql {
			ok = node.IsLeaf()
		} else {
			ok = node.Level() == targetLevel && !node.IsLeaf()
			if class == Qs {
				ok = node.Level() == 2
			}
		}
		if !ok {
			continue
		}
		if i, seen := byTag[node.Tag]; seen {
			cands[i].instances = append(cands[i].instances, node)
			continue
		}
		byTag[node.Tag] = len(cands)
		cands = append(cands, cand{tag: node.Tag, instances: []*xmltree.Node{node}})
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].tag < cands[j].tag })
	if len(cands) == 0 {
		return nil
	}

	// Fresh predicates come from their own stream, so a repeat does not
	// shift the draws of the queries after it.
	fresh := NewRand(^seed)
	var out []string
	asked := map[string]bool{}
	for i := 0; i < n; i++ {
		c := cands[r.Intn(len(cands))]
		q := "//" + c.tag
		switch r.Intn(3) {
		case 0:
			// Pure structural.
		case 1:
			// Existence predicate on a child (or self for leaves).
			if ch := pickElementChild(r, c.instances[0]); ch != "" {
				q += "[" + ch + "]"
			}
		case 2:
			// Value predicate drawn from the document.
			if pred := pickValuePredicate(r, c.instances[0]); pred != "" {
				q += "[" + pred + "]"
			}
		}
		// A bounded number of draws: a tag with few distinct values
		// may have no fresh predicate left, and then the repeat stays.
		for try := 0; len(cands) < n && asked[q] && try < 32; try++ {
			inst := c.instances[fresh.Intn(len(c.instances))]
			if pred := pickValuePredicate(fresh, inst); pred != "" {
				q = "//" + c.tag + "[" + pred + "]"
			}
		}
		asked[q] = true
		out = append(out, q)
	}
	return out
}

func pickElementChild(r *Rand, n *xmltree.Node) string {
	kids := n.ElementChildren()
	if len(kids) == 0 {
		return ""
	}
	return kids[r.Intn(len(kids))].Tag
}

// pickValuePredicate builds "[child='v']" (or "[.='v']" for leaves)
// from an actual value under n, quoting safely.
func pickValuePredicate(r *Rand, n *xmltree.Node) string {
	if n.IsLeaf() {
		v := n.LeafValue()
		if v == "" || strings.ContainsAny(v, "'\"") {
			return ""
		}
		return ".='" + v + "'"
	}
	var leaves []*xmltree.Node
	n.Walk(func(d *xmltree.Node) bool {
		if d != n && d.Kind == xmltree.Element && d.IsLeaf() && d.LeafValue() != "" {
			leaves = append(leaves, d)
		}
		return true
	})
	if len(leaves) == 0 {
		return ""
	}
	leaf := leaves[r.Intn(len(leaves))]
	v := leaf.LeafValue()
	if strings.ContainsAny(v, "'\"") {
		return ""
	}
	rel := ".//" + leaf.Tag
	if leaf.Parent == n {
		rel = leaf.Tag
	}
	return rel + "='" + v + "'"
}
