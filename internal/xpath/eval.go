package xpath

import (
	"sort"
	"strconv"
	"strings"

	"repro/internal/xmltree"
)

// Evaluate runs a path against a document and returns the selected
// nodes in document order without duplicates. Relative paths are
// evaluated with the root element as context node.
func Evaluate(doc *xmltree.Document, p *Path) []*xmltree.Node {
	if doc == nil || doc.Root == nil {
		return nil
	}
	return EvaluateFrom(doc.Root, p)
}

// EvaluateFrom runs a path with ctx as the context node. For an
// absolute path the context is replaced by the root of ctx's tree.
func EvaluateFrom(ctx *xmltree.Node, p *Path) []*xmltree.Node {
	start := ctx
	if p.Absolute {
		for start.Parent != nil {
			start = start.Parent
		}
		// An absolute path's first step selects from a virtual
		// document node whose only child is the root element.
		return evalSteps([]*xmltree.Node{start}, p, true)
	}
	return evalSteps([]*xmltree.Node{start}, p, false)
}

// Matches reports whether the path selects at least one node.
func Matches(doc *xmltree.Document, p *Path) bool {
	return len(Evaluate(doc, p)) > 0
}

// evalSteps applies every step of p to the context set. When
// virtualRoot is true the context set contains the root element but
// the first step must match it as if selected from a document node
// (so "/hospital" selects the root itself).
func evalSteps(ctxs []*xmltree.Node, p *Path, virtualRoot bool) []*xmltree.Node {
	cur := ctxs
	for i, st := range p.Steps {
		var next []*xmltree.Node
		for _, c := range cur {
			next = append(next, applyStep(c, st, p.Desc[i], virtualRoot && i == 0)...)
		}
		cur = dedupSort(next)
		if len(cur) == 0 {
			return nil
		}
	}
	return cur
}

// applyStep evaluates one location step from a single context node.
// atRoot marks the first step of an absolute path, where the context
// is the root element standing in for the document node.
func applyStep(ctx *xmltree.Node, st Step, desc, atRoot bool) []*xmltree.Node {
	bases := []*xmltree.Node{ctx}
	if desc {
		// "//" — descendant-or-self::node() before the step's axis.
		// (From the virtual document node this covers the root and
		// everything below: the same set.)
		bases = append(bases, elementDescendants(ctx)...)
	} else if atRoot {
		// "/tag" from the document node selects the root element
		// itself when it matches.
		var out []*xmltree.Node
		if st.Axis == AxisChild && matchTest(ctx, st.Test, false) {
			out = applyPreds([]*xmltree.Node{ctx}, st.Preds)
		}
		return out
	}
	var selected []*xmltree.Node
	for _, b := range bases {
		selected = append(selected, axisNodes(b, st)...)
	}
	if desc && atRoot && st.Axis == AxisChild && matchTest(ctx, st.Test, false) {
		// "//tag" also matches the root element itself.
		selected = append(selected, ctx)
	}
	return applyPreds(dedupSort(selected), st.Preds)
}

func axisNodes(n *xmltree.Node, st Step) []*xmltree.Node {
	var cands []*xmltree.Node
	switch st.Axis {
	case AxisChild:
		for _, c := range n.Children {
			if c.Kind == xmltree.Element || (st.Test.Text && c.Kind == xmltree.Text) {
				cands = append(cands, c)
			}
		}
	case AxisAttribute:
		cands = n.Attributes()
	case AxisDescendant:
		cands = elementDescendants(n)
	case AxisDescendantOrSelf:
		cands = append([]*xmltree.Node{n}, elementDescendants(n)...)
	case AxisSelf:
		cands = []*xmltree.Node{n}
	case AxisParent:
		if n.Parent != nil {
			cands = []*xmltree.Node{n.Parent}
		}
	case AxisAncestor:
		cands = n.Ancestors()
	case AxisAncestorOrSelf:
		cands = append([]*xmltree.Node{n}, n.Ancestors()...)
	case AxisFollowingSibling:
		for _, s := range n.FollowingSiblings() {
			if s.Kind == xmltree.Element {
				cands = append(cands, s)
			}
		}
	case AxisPrecedingSibling:
		for _, s := range n.PrecedingSiblings() {
			if s.Kind == xmltree.Element {
				cands = append(cands, s)
			}
		}
	}
	attrAxis := st.Axis == AxisAttribute
	out := cands[:0]
	for _, c := range cands {
		if matchTest(c, st.Test, attrAxis) {
			out = append(out, c)
		}
	}
	return out
}

func matchTest(n *xmltree.Node, t NodeTest, attrAxis bool) bool {
	switch {
	case t.Text:
		return n.Kind == xmltree.Text
	case t.Wildcard:
		if attrAxis {
			return n.Kind == xmltree.Attribute
		}
		return n.Kind == xmltree.Element
	default:
		if attrAxis {
			return n.Kind == xmltree.Attribute && n.Tag == t.Name
		}
		return n.Kind == xmltree.Element && n.Tag == t.Name
	}
}

func elementDescendants(n *xmltree.Node) []*xmltree.Node {
	var out []*xmltree.Node
	var rec func(*xmltree.Node)
	rec = func(m *xmltree.Node) {
		for _, c := range m.Children {
			if c.Kind == xmltree.Element {
				out = append(out, c)
				rec(c)
			}
		}
	}
	rec(n)
	return out
}

// applyPreds filters nodes through each predicate in sequence.
// Positional predicates index into the list as filtered so far,
// per XPath semantics.
func applyPreds(nodes []*xmltree.Node, preds []Expr) []*xmltree.Node {
	cur := nodes
	for _, pred := range preds {
		if pos, ok := pred.(*PosExpr); ok {
			if pos.N <= len(cur) {
				cur = []*xmltree.Node{cur[pos.N-1]}
			} else {
				cur = nil
			}
			continue
		}
		var kept []*xmltree.Node
		for _, n := range cur {
			if evalExpr(n, pred) {
				kept = append(kept, n)
			}
		}
		cur = kept
	}
	return cur
}

func evalExpr(ctx *xmltree.Node, e Expr) bool {
	switch v := e.(type) {
	case *ExistsExpr:
		return len(EvaluateFrom(ctx, v.Path)) > 0
	case *CmpExpr:
		nodes := EvaluateFrom(ctx, v.Path)
		if v.Range {
			lo, hi := DecodeValue(v.Literal), DecodeValue(v.Hi)
			for _, n := range nodes {
				s := StringValue(n)
				if compareValues(s, lo) >= 0 && compareValues(s, hi) <= 0 {
					return true
				}
			}
			return false
		}
		lit := DecodeValue(v.Literal)
		for _, n := range nodes {
			if opHolds(compareValues(StringValue(n), lit), v.Op) {
				return true
			}
		}
		return false
	case *AndExpr:
		return evalExpr(ctx, v.L) && evalExpr(ctx, v.R)
	case *OrExpr:
		return evalExpr(ctx, v.L) || evalExpr(ctx, v.R)
	case *NotExpr:
		return !evalExpr(ctx, v.E)
	case *PosExpr:
		// Positional predicates are handled in applyPreds; reaching
		// here (e.g. inside and/or) treats [n] as "result size >= n",
		// which is never needed by the paper's query classes.
		return false
	default:
		return false
	}
}

// StringValue returns the XPath string-value of a node: the
// concatenation of all descendant text, or the attribute value.
func StringValue(n *xmltree.Node) string {
	switch n.Kind {
	case xmltree.Attribute, xmltree.Text:
		return n.Value
	}
	var sb strings.Builder
	n.Walk(func(d *xmltree.Node) bool {
		if d.Kind == xmltree.Text {
			sb.WriteString(d.Value)
		}
		return true
	})
	return sb.String()
}

// Value is a string-value decoded for comparison: its text and, when
// the text parses as a number, that number. Decoding once lets a value
// compared many times (a residue node's string-value, a predicate's
// literal) skip the float parse on every comparison.
type Value struct {
	S   string
	F   float64
	Num bool // S parses as a number, F
}

// DecodeValue decodes s for comparison.
func DecodeValue(s string) Value {
	// Every string ParseFloat accepts starts with a sign, a digit, a
	// point or the i/n of inf/nan; looking first spares most text the
	// syntax error ParseFloat allocates.
	if s == "" || strings.IndexByte("+-.0123456789iInN", s[0]) < 0 {
		return Value{S: s}
	}
	f, err := strconv.ParseFloat(s, 64)
	return Value{S: s, F: f, Num: err == nil}
}

// Holds reports whether "v op lit" holds under XPath comparison
// semantics: numeric when both sides are numbers, lexicographic
// otherwise.
func (v Value) Holds(op Op, lit Value) bool {
	return opHolds(compareDecoded(v, lit), op)
}

// compareValues compares a value with a decoded literal, returning -1,
// 0 or 1. The value is parsed only when the literal is a number: a
// non-numeric literal compares lexicographically whatever the value is.
func compareValues(val string, lit Value) int {
	if !lit.Num {
		return strings.Compare(val, lit.S)
	}
	return compareDecoded(DecodeValue(val), lit)
}

func compareDecoded(a, b Value) int {
	if a.Num && b.Num {
		switch {
		case a.F < b.F:
			return -1
		case a.F > b.F:
			return 1
		default:
			return 0
		}
	}
	return strings.Compare(a.S, b.S)
}

func opHolds(cmp int, op Op) bool {
	switch op {
	case OpEq:
		return cmp == 0
	case OpNe:
		return cmp != 0
	case OpLt:
		return cmp < 0
	case OpLe:
		return cmp <= 0
	case OpGt:
		return cmp > 0
	case OpGe:
		return cmp >= 0
	default:
		return false
	}
}

func dedupSort(nodes []*xmltree.Node) []*xmltree.Node {
	if len(nodes) <= 1 {
		return nodes
	}
	seen := make(map[*xmltree.Node]bool, len(nodes))
	out := nodes[:0]
	for _, n := range nodes {
		if !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
