package xpath_test

import (
	"cmp"
	"fmt"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/difftest"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// refDoc is a reference evaluator for the xpath AST that shares nothing
// with eval.go but the AST and the tree. It follows XPath 1.0 over a
// document node standing above the root element: every axis is read
// off the parent/child relation (attributes hang off their element but
// are nobody's children), a node-set is a slice sorted in
// document order without duplicates, a predicate filters the nodes one
// step selects from one context node, and a comparison between a path
// and a literal holds when it holds for some node's string-value
// (§3.4).
//
// Evaluate deviates from XPath 1.0 deliberately in the ways below, and
// the reference models each so that every other difference is a fault:
//
//   - Under "//", descendant-or-self::node() reaches the context node
//     and the elements below it, never a text node, and the document
//     node only for a child-axis step ("//parent::x" misses a leaf x
//     whose only children are text; "//descendant::x" misses the root).
//   - The first step of an absolute path without "//" selects only on
//     the child axis ("/self::r" is empty).
//   - A positional predicate counts in document order on every axis,
//     reverse axes included ("ancestor::x[1]" is the outermost x).
//   - An attribute's following siblings are its element's children,
//     and it has no preceding ones: the tree keeps attributes first
//     among an element's children, and the sibling axes read them.
//   - A number inside and/or/not is false, not a position.
//   - A literal is a number when its text is one, quoted or not, and a
//     value when Go's ParseFloat reads it; the reference reads XPath's
//     Number syntax, which agrees on every value the generated
//     documents hold. Two numbers compare numerically; otherwise = and
//     != compare strings, and <, <=, >, >= compare strings byte-wise
//     where XPath would compare NaN and fail.
type refDoc struct {
	top  *xmltree.Node // the document node; not part of the tree
	root *xmltree.Node
	ord  map[*xmltree.Node]int // document order; the document node is -1
}

func newRefDoc(d *xmltree.Document) *refDoc {
	r := &refDoc{top: &xmltree.Node{Kind: xmltree.Element}, root: d.Root, ord: map[*xmltree.Node]int{}}
	r.ord[r.top] = -1
	d.Root.Walk(func(n *xmltree.Node) bool { r.ord[n] = len(r.ord) - 1; return true })
	return r
}

func (r *refDoc) parent(n *xmltree.Node) *xmltree.Node {
	if n == r.root {
		return r.top
	}
	return n.Parent
}

func (r *refDoc) axis(n *xmltree.Node, ax xpath.Axis) []*xmltree.Node {
	var out []*xmltree.Node
	switch ax {
	case xpath.AxisChild, xpath.AxisAttribute:
		kids := n.Children
		if n == r.top {
			kids = []*xmltree.Node{r.root}
		}
		for _, c := range kids {
			if (c.Kind == xmltree.Attribute) == (ax == xpath.AxisAttribute) {
				out = append(out, c)
			}
		}
	case xpath.AxisDescendantOrSelf:
		out = []*xmltree.Node{n}
		fallthrough
	case xpath.AxisDescendant:
		for _, c := range r.axis(n, xpath.AxisChild) {
			out = append(out, r.axis(c, xpath.AxisDescendantOrSelf)...)
		}
	case xpath.AxisSelf:
		out = []*xmltree.Node{n}
	case xpath.AxisParent:
		if p := r.parent(n); p != nil {
			out = []*xmltree.Node{p}
		}
	case xpath.AxisAncestorOrSelf:
		out = []*xmltree.Node{n}
		fallthrough
	case xpath.AxisAncestor:
		for p := r.parent(n); p != nil; p = r.parent(p) {
			out = append(out, p)
		}
	case xpath.AxisFollowingSibling, xpath.AxisPrecedingSibling:
		// An attribute precedes its element's children in document
		// order, which gives the attribute deviation.
		if p := r.parent(n); p != nil {
			for _, s := range r.axis(p, xpath.AxisChild) {
				if s != n && (r.ord[s] > r.ord[n]) == (ax == xpath.AxisFollowingSibling) {
					out = append(out, s)
				}
			}
		}
	}
	return r.sorted(out)
}

func (r *refDoc) sorted(ns []*xmltree.Node) []*xmltree.Node {
	slices.SortFunc(ns, func(a, b *xmltree.Node) int { return r.ord[a] - r.ord[b] })
	return slices.Compact(ns)
}

// test is the node test; an axis's principal node type is attribute
// on the attribute axis and element elsewhere.
func (r *refDoc) test(n *xmltree.Node, t xpath.NodeTest, ax xpath.Axis) bool {
	principal := map[bool]xmltree.Kind{false: xmltree.Element, true: xmltree.Attribute}[ax == xpath.AxisAttribute]
	if t.Text {
		return n.Kind == xmltree.Text
	}
	return n != r.top && n.Kind == principal && (t.Wildcard || n.Tag == t.Name)
}

// bases is where a step's axis starts from context c: c itself, or
// under "//" the nodes descendant-or-self::node() reaches, as Evaluate
// reads it (see the deviations).
func (r *refDoc) bases(c *xmltree.Node, desc bool, ax xpath.Axis) []*xmltree.Node {
	reach := []*xmltree.Node{c}
	if desc {
		reach = r.axis(c, xpath.AxisDescendantOrSelf)
	}
	var out []*xmltree.Node
	for _, b := range reach {
		if (b != r.top || ax == xpath.AxisChild) && (b == c || b.Kind == xmltree.Element) {
			out = append(out, b)
		}
	}
	return out
}

func (r *refDoc) eval(ctx *xmltree.Node, p *xpath.Path) []*xmltree.Node {
	cur := []*xmltree.Node{ctx}
	if p.Absolute {
		cur = []*xmltree.Node{r.top}
	}
	for i, st := range p.Steps {
		var next []*xmltree.Node
		for _, c := range cur {
			for _, b := range r.bases(c, p.Desc[i], st.Axis) {
				var sel []*xmltree.Node
				for _, n := range r.axis(b, st.Axis) {
					if r.test(n, st.Test, st.Axis) {
						sel = append(sel, n)
					}
				}
				next = append(next, r.filter(sel, st.Preds)...)
			}
		}
		cur = r.sorted(next)
	}
	return cur
}

func (r *refDoc) filter(ns []*xmltree.Node, preds []xpath.Expr) []*xmltree.Node {
	for _, e := range preds {
		if pos, ok := e.(*xpath.PosExpr); ok {
			ns = ns[min(pos.N-1, len(ns)):min(pos.N, len(ns))]
			continue
		}
		var kept []*xmltree.Node
		for _, n := range ns {
			if r.truth(n, e) {
				kept = append(kept, n)
			}
		}
		ns = kept
	}
	return ns
}

func (r *refDoc) truth(n *xmltree.Node, e xpath.Expr) bool {
	switch v := e.(type) {
	case *xpath.ExistsExpr:
		return len(r.eval(n, v.Path)) > 0
	case *xpath.CmpExpr:
		if v.Range {
			panic("reference: range comparisons are the server's")
		}
		for _, m := range r.eval(n, v.Path) {
			if refCompare(r.stringValue(m), v.Literal, v.Op) {
				return true
			}
		}
		return false
	case *xpath.AndExpr:
		return r.truth(n, v.L) && r.truth(n, v.R)
	case *xpath.OrExpr:
		return r.truth(n, v.L) || r.truth(n, v.R)
	case *xpath.NotExpr:
		return !r.truth(n, v.E)
	}
	return false // a position inside and/or/not
}

func (r *refDoc) stringValue(n *xmltree.Node) string {
	if n.Kind != xmltree.Element {
		return n.Value
	}
	var sb strings.Builder
	for _, d := range r.axis(n, xpath.AxisDescendant) {
		if d.Kind == xmltree.Text {
			sb.WriteString(d.Value)
		}
	}
	return sb.String()
}

// numberRE is XPath 1.0's Number, with an optional minus.
var numberRE = regexp.MustCompile(`^-?([0-9]+(\.[0-9]*)?|\.[0-9]+)$`)

func refCompare(val, lit string, op xpath.Op) bool {
	c := strings.Compare(val, lit)
	if numberRE.MatchString(val) && numberRE.MatchString(lit) {
		a, _ := strconv.ParseFloat(val, 64)
		b, _ := strconv.ParseFloat(lit, 64)
		c = cmp.Compare(a, b)
	}
	return map[xpath.Op]bool{xpath.OpEq: c == 0, xpath.OpNe: c != 0, xpath.OpLt: c < 0,
		xpath.OpLe: c <= 0, xpath.OpGt: c > 0, xpath.OpGe: c >= 0}[op]
}

// queryGen draws random paths over one document's vocabulary: every
// axis, name tests, wildcards, text() and @* as final steps, and
// predicates — existence, comparisons, not/and/or, positions — nested
// up to two deep.
type queryGen struct {
	r     *datagen.Rand
	vocab map[string][]string // "tag", "attr", "value"; "kid:t" and "up:t" are t's child and parent tags
}

func newQueryGen(seed uint64, d *xmltree.Document) *queryGen {
	g := &queryGen{r: datagen.NewRand(seed), vocab: map[string][]string{}}
	seen := map[string]bool{}
	add := func(k, v string) {
		if !seen[k+">"+v] {
			seen[k+">"+v] = true
			g.vocab[k] = append(g.vocab[k], v)
		}
	}
	d.Root.Walk(func(n *xmltree.Node) bool {
		switch n.Kind {
		case xmltree.Element:
			add("tag", n.Tag)
			if p := n.Parent; p != nil {
				add("kid:"+p.Tag, n.Tag)
				add("up:"+n.Tag, p.Tag)
			}
		case xmltree.Attribute:
			add("attr", n.Tag)
			add("value", n.Value)
		case xmltree.Text:
			add("value", n.Value)
		}
		return true
	})
	add("attr", "nosuch")
	return g
}

// name picks a name test for an axis step from an element tagged prev
// ("" when unknown): mostly a tag the axis can reach from there.
func (g *queryGen) name(ax xpath.Axis, prev string) string {
	near := map[xpath.Axis][]string{xpath.AxisChild: g.vocab["kid:"+prev], xpath.AxisParent: g.vocab["up:"+prev], xpath.AxisSelf: {prev}}[ax]
	if prev != "" && len(near) > 0 && g.r.Intn(4) > 0 {
		return g.r.Pick(near)
	}
	return g.r.Pick(g.vocab["tag"])
}

var stepAxes = []xpath.Axis{
	xpath.AxisChild, xpath.AxisChild, xpath.AxisChild, xpath.AxisChild, xpath.AxisChild, xpath.AxisDescendant,
	xpath.AxisDescendantOrSelf, xpath.AxisSelf, xpath.AxisParent, xpath.AxisAncestor,
	xpath.AxisAncestorOrSelf, xpath.AxisFollowingSibling, xpath.AxisPrecedingSibling,
}

func (g *queryGen) path(abs bool, depth int, prev string) *xpath.Path {
	p := &xpath.Path{Absolute: abs}
	n := 1 + g.r.Intn(3>>depth)
	for i := 0; i < n; i++ {
		desc := g.r.Intn(4) == 0 || (abs && i == 0 && g.r.Intn(4) > 0)
		if desc || abs && i == 0 {
			prev = ""
		}
		st := xpath.Step{Axis: stepAxes[g.r.Intn(len(stepAxes))]}
		if i == 0 && g.r.Intn(2) == 0 {
			st.Axis = xpath.AxisChild
		}
		st.Test.Name = g.name(st.Axis, prev)
		if abs && i == 0 && !desc {
			st.Test.Name = g.vocab["tag"][0] // the root's
		}
		if prev = st.Test.Name; g.r.Intn(4) == 0 {
			st.Test, prev = xpath.NodeTest{Wildcard: true}, ""
		}
		if i == n-1 && g.r.Intn(8) < 3 {
			st = []xpath.Step{{Axis: xpath.AxisAttribute, Test: xpath.NodeTest{Name: g.r.Pick(g.vocab["attr"])}},
				{Axis: xpath.AxisAttribute, Test: xpath.NodeTest{Wildcard: true}},
				{Axis: xpath.AxisChild, Test: xpath.NodeTest{Text: true}}}[g.r.Intn(3)]
		}
		for depth < 2 && g.r.Intn(3) == 0 {
			st.Preds = append(st.Preds, g.pred(depth+1, true, prev))
		}
		p.Steps = append(p.Steps, st)
		p.Desc = append(p.Desc, desc)
	}
	return p
}

func (g *queryGen) pred(depth int, top bool, prev string) xpath.Expr {
	switch k := g.r.Intn(10); {
	case k < 3 && top:
		return &xpath.PosExpr{N: 1 + g.r.Intn(2)}
	case k < 5:
		return &xpath.ExistsExpr{Path: g.path(false, depth, prev)}
	case k < 8:
		lit := g.r.Pick(g.vocab["value"])
		if g.r.Intn(3) == 0 {
			lit = strconv.Itoa(g.r.Intn(2000))
		}
		return &xpath.CmpExpr{Path: g.path(false, depth, prev), Op: xpath.Op(g.r.Intn(6)), Literal: lit}
	case k == 8:
		return &xpath.NotExpr{E: g.pred(depth, false, prev)}
	}
	if g.r.Intn(2) == 0 {
		return &xpath.AndExpr{L: g.pred(depth, false, prev), R: g.pred(depth, g.r.Intn(4) == 0, prev)}
	}
	return &xpath.OrExpr{L: g.pred(depth, false, prev), R: g.pred(depth, false, prev)}
}

// TestEvaluateMatchesReference holds Evaluate to the reference on
// random queries over NASA and XMark documents, the differential
// corpus's documents and the "//" position case, from the root and
// from inner context nodes: the same nodes, in the same order.
func TestEvaluateMatchesReference(t *testing.T) {
	docs := []*xmltree.Document{
		xmltree.MustParse(`<r><a><x>1</x><x>2</x></a><a k="v"><x>3</x><x>4</x><y/></a></r>`),
		datagen.NASA(4, 7), datagen.XMark(2, 7),
	}
	for _, seed := range difftest.CorpusSeeds[:8] {
		docs = append(docs, difftest.GenCase(seed).Doc)
	}
	fixed := []string{"//x[1]", "//x[2]", "/r//x[1]", "//*[1]", "//a[2]/x[1]", "//author[1]", "//ancestor::*[1]"}
	nonEmpty := 0
	for di, d := range docs {
		ref := newRefDoc(d)
		g := newQueryGen(uint64(di)+1, d)
		var ps []*xpath.Path
		for _, q := range fixed {
			ps = append(ps, xpath.MustParse(q))
		}
		for i := 0; i < 400; i++ {
			ps = append(ps, g.path(true, 0, ""))
		}
		for i, p := range ps {
			ctx := d.Root
			if i%3 == 1 { // relative, from the root or an inner node
				p = &xpath.Path{Steps: p.Steps, Desc: p.Desc}
				ctx = d.Nodes()[d.Size()*(i/3%3)/3]
			}
			got, want := xpath.EvaluateFrom(ctx, p), ref.eval(ctx, p)
			if !slices.Equal(got, want) {
				t.Fatalf("document %d, context %s: %s\n Evaluate  %v\n reference %v", di, ctx.Path(), p, paths(got), paths(want))
			}
			if len(want) > 0 {
				nonEmpty++
			}
		}
	}
	queries := len(docs) * (len(fixed) + 400)
	if nonEmpty*4 < queries {
		t.Fatalf("generator too weak: %d of %d queries select anything", nonEmpty, queries)
	}
	t.Logf("%d queries, %d non-empty", queries, nonEmpty)
}

func paths(ns []*xmltree.Node) (out []string) {
	for _, n := range ns {
		out = append(out, fmt.Sprintf("%s#%d", n.Path(), n.ID))
	}
	return out
}
