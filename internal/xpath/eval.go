package xpath

import (
	"cmp"
	"slices"
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
			next = applyStep(next, c, st, p.Desc[i], virtualRoot && i == 0)
		}
		// One context's selection is already in document order
		// without duplicates; only a union needs merging.
		if len(cur) > 1 {
			next = dedupSort(next)
		}
		cur = next
		if len(cur) == 0 {
			return nil
		}
	}
	return cur
}

// applyStep evaluates one location step from a single context node and
// appends the selection, in document order without duplicates, to out.
// atRoot marks the first step of an absolute path, where the context
// is the root element standing in for the document node.
func applyStep(out []*xmltree.Node, ctx *xmltree.Node, st Step, desc, atRoot bool) []*xmltree.Node {
	start := len(out)
	if !desc {
		if !atRoot {
			return selectFrom(out, ctx, st)
		}
		// "/tag" from the document node selects the root element
		// itself when it matches.
		if st.Axis == AxisChild && matchTest(ctx, st.Test, false) {
			out = filterPreds(append(out, ctx), start, st.Preds)
		}
		return out
	}
	// "//" — descendant-or-self::node() before the step's axis. (From
	// the virtual document node this covers the root and everything
	// below: the same set, plus the root as the document node's child.)
	if atRoot && st.Axis == AxisChild && matchTest(ctx, st.Test, false) {
		out = filterPreds(append(out, ctx), start, st.Preds)
	}
	if (st.Axis == AxisChild || st.Axis == AxisAttribute) && !hasPosition(st.Preds) {
		// The children (attributes) of ctx and of every element below
		// it are exactly the nodes (attributes) below ctx: one preorder
		// walk meets each match once, in document order.
		mid := len(out)
		out = collectBelow(out, ctx, &st.Test, st.Axis == AxisAttribute)
		return filterPreds(out, mid, st.Preds)
	}
	// Predicates apply per base, as in descendant-or-self::node()/
	// child::x[1]: positions count within each base's axis.
	for _, b := range append([]*xmltree.Node{ctx}, elementDescendants(ctx)...) {
		out = selectFrom(out, b, st)
	}
	return out[:start+len(dedupSort(out[start:]))]
}

// selectFrom appends what one step selects from base: its axis nodes
// passing the node test, in document order, filtered by the step's
// predicates.
func selectFrom(out []*xmltree.Node, base *xmltree.Node, st Step) []*xmltree.Node {
	start := len(out)
	out = appendAxis(out, base, st)
	// Reverse axes arrive nearest first; positions count in document
	// order.
	sel := dedupSort(out[start:])
	return filterPreds(out[:start+len(sel)], start, st.Preds)
}

// filterPreds filters out[start:] in place through each predicate in
// sequence. Positional predicates index into the nodes as filtered so
// far, per XPath semantics.
func filterPreds(out []*xmltree.Node, start int, preds []Expr) []*xmltree.Node {
	for _, pred := range preds {
		if pos, ok := pred.(*PosExpr); ok {
			if pos.N <= len(out)-start {
				out[start] = out[start+pos.N-1]
				out = out[:start+1]
			} else {
				out = out[:start]
			}
			continue
		}
		kept := out[:start]
		for _, n := range out[start:] {
			if evalExpr(n, pred) {
				kept = append(kept, n)
			}
		}
		out = kept
	}
	return out
}

func hasPosition(preds []Expr) bool {
	for _, p := range preds {
		if _, ok := p.(*PosExpr); ok {
			return true
		}
	}
	return false
}

// collectBelow appends the nodes below n that the child axis (or, with
// attrAxis, the attribute axis) of n or of an element below it selects
// under test, in document order.
func collectBelow(out []*xmltree.Node, n *xmltree.Node, test *NodeTest, attrAxis bool) []*xmltree.Node {
	for _, c := range n.Children {
		if (c.Kind == xmltree.Attribute) == attrAxis && matchTest(c, *test, attrAxis) {
			out = append(out, c)
		}
		if c.Kind == xmltree.Element {
			out = collectBelow(out, c, test, attrAxis)
		}
	}
	return out
}

// appendAxis appends the nodes on n's st.Axis that pass st.Test.
func appendAxis(out []*xmltree.Node, n *xmltree.Node, st Step) []*xmltree.Node {
	t, attrAxis := st.Test, st.Axis == AxisAttribute
	add := func(c *xmltree.Node) {
		if matchTest(c, t, attrAxis) {
			out = append(out, c)
		}
	}
	switch st.Axis {
	case AxisChild, AxisAttribute:
		for _, c := range n.Children {
			if (c.Kind == xmltree.Attribute) == attrAxis {
				add(c)
			}
		}
	case AxisDescendantOrSelf:
		add(n)
		fallthrough
	case AxisDescendant:
		for _, d := range elementDescendants(n) {
			add(d)
		}
	case AxisSelf:
		add(n)
	case AxisParent:
		if n.Parent != nil {
			add(n.Parent)
		}
	case AxisAncestorOrSelf:
		add(n)
		fallthrough
	case AxisAncestor:
		for _, a := range n.Ancestors() {
			add(a)
		}
	case AxisFollowingSibling, AxisPrecedingSibling:
		sib := n.FollowingSiblings()
		if st.Axis == AxisPrecedingSibling {
			sib = n.PrecedingSiblings()
		}
		for _, s := range sib {
			if s.Kind == xmltree.Element {
				add(s)
			}
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
		// Positional predicates are handled in filterPreds; reaching
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
	// Every string ParseFloat accepts starts with a sign, a digit or a
	// point, or is inf, infinity or nan in any case; looking first
	// spares other text the syntax error ParseFloat allocates.
	if s == "" || strings.IndexByte("+-.0123456789", s[0]) < 0 &&
		!strings.EqualFold(s, "inf") && !strings.EqualFold(s, "infinity") && !strings.EqualFold(s, "nan") {
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

// dedupSort puts nodes in document order and drops duplicates, in
// place.
func dedupSort(nodes []*xmltree.Node) []*xmltree.Node {
	if len(nodes) <= 1 {
		return nodes
	}
	slices.SortFunc(nodes, func(a, b *xmltree.Node) int { return cmp.Compare(a.ID, b.ID) })
	return slices.Compact(nodes)
}
