// Package xpath implements the XPath subset used by the paper for
// query processing (§1, §6): rooted and relative location paths with
// child / descendant / attribute / sibling axes, wildcards, and
// predicates combining existence tests, value comparisons and
// positional filters. The same AST is shared by the plaintext
// evaluator (client post-processing), the client query translator,
// and the server-side structural planner.
package xpath

import (
	"fmt"
	"strings"
)

// Axis identifies an XPath axis.
type Axis int

const (
	AxisChild Axis = iota
	AxisDescendant
	AxisDescendantOrSelf
	AxisAttribute
	AxisSelf
	AxisParent
	AxisFollowingSibling
	AxisPrecedingSibling
	AxisAncestor
	AxisAncestorOrSelf
)

var axisNames = map[Axis]string{
	AxisChild:            "child",
	AxisDescendant:       "descendant",
	AxisDescendantOrSelf: "descendant-or-self",
	AxisAttribute:        "attribute",
	AxisSelf:             "self",
	AxisParent:           "parent",
	AxisFollowingSibling: "following-sibling",
	AxisPrecedingSibling: "preceding-sibling",
	AxisAncestor:         "ancestor",
	AxisAncestorOrSelf:   "ancestor-or-self",
}

func (a Axis) String() string {
	if s, ok := axisNames[a]; ok {
		return s
	}
	return fmt.Sprintf("Axis(%d)", int(a))
}

// NodeTest selects nodes by name on an axis.
type NodeTest struct {
	Wildcard bool   // "*"
	Text     bool   // "text()"
	Name     string // element tag or attribute name
}

func (t NodeTest) String() string {
	switch {
	case t.Wildcard:
		return "*"
	case t.Text:
		return "text()"
	default:
		return t.Name
	}
}

// Step is one location step: axis, node test and predicates.
type Step struct {
	Axis  Axis
	Test  NodeTest
	Preds []Expr
}

func (s Step) String() string {
	var sb strings.Builder
	switch s.Axis {
	case AxisChild:
		// default axis, no prefix
	case AxisAttribute:
		sb.WriteString("@")
	default:
		sb.WriteString(s.Axis.String())
		sb.WriteString("::")
	}
	sb.WriteString(s.Test.String())
	for _, p := range s.Preds {
		sb.WriteString("[")
		sb.WriteString(p.String())
		sb.WriteString("]")
	}
	return sb.String()
}

// Path is a location path. Absolute paths start at the document
// root; relative paths start at a context node. Descending is
// recorded per step: Desc[i] is true when step i was preceded by
// "//" (and is therefore reached through descendant-or-self).
type Path struct {
	Absolute bool
	Steps    []Step
	Desc     []bool // len == len(Steps); Desc[i] ⇒ "//" before step i
}

func (p *Path) String() string {
	var sb strings.Builder
	for i, s := range p.Steps {
		switch {
		case p.Desc[i]:
			if i == 0 && !p.Absolute {
				sb.WriteString(".//")
			} else {
				sb.WriteString("//")
			}
		case i == 0 && p.Absolute:
			sb.WriteString("/")
		case i == 0:
			// relative child step: no prefix
		default:
			sb.WriteString("/")
		}
		sb.WriteString(s.String())
	}
	return sb.String()
}

// Op is a comparison operator in a value predicate.
type Op int

const (
	OpEq Op = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
)

var opNames = map[Op]string{
	OpEq: "=", OpNe: "!=", OpLt: "<", OpLe: "<=", OpGt: ">", OpGe: ">=",
}

func (o Op) String() string { return opNames[o] }

// Flip returns the operator with its operands swapped (e.g. '5 < x'
// becomes 'x > 5').
func (o Op) Flip() Op {
	switch o {
	case OpLt:
		return OpGt
	case OpLe:
		return OpGe
	case OpGt:
		return OpLt
	case OpGe:
		return OpLe
	default:
		return o
	}
}

// Expr is a predicate expression.
type Expr interface {
	String() string
	exprNode()
}

// ExistsExpr is true when the relative path has a non-empty result.
type ExistsExpr struct{ Path *Path }

// CmpExpr is true when some node selected by Path has a leaf value
// satisfying "value Op Literal". Numeric comparison is used when
// both sides parse as numbers, string comparison otherwise.
type CmpExpr struct {
	Path    *Path
	Op      Op
	Literal string
	// Range marks a CmpExpr produced by query translation: Literal
	// and Hi are OPESS ciphertext bounds and the comparison is
	// Literal <= value <= Hi on the server's value index.
	Range bool
	Hi    string
}

// AndExpr / OrExpr / NotExpr are boolean combinations.
type AndExpr struct{ L, R Expr }
type OrExpr struct{ L, R Expr }
type NotExpr struct{ E Expr }

// PosExpr filters by 1-based position among the nodes the step's axis
// selects from one context node (after the predicates before it), in
// document order. Under "//" each node reached by
// descendant-or-self::node() is a context of its own, so //x[1] is
// the first x child of every parent, not the first x in the document.
type PosExpr struct{ N int }

func (e *ExistsExpr) String() string { return e.Path.String() }
func (e *CmpExpr) String() string {
	if e.Range {
		return fmt.Sprintf("%s in [%s, %s]", e.Path.String(), e.Literal, e.Hi)
	}
	return fmt.Sprintf("%s%s%s", e.Path.String(), e.Op, quoteLiteral(e.Literal))
}
func (e *AndExpr) String() string { return e.L.String() + " and " + e.R.String() }
func (e *OrExpr) String() string  { return e.L.String() + " or " + e.R.String() }
func (e *NotExpr) String() string { return "not(" + e.E.String() + ")" }
func (e *PosExpr) String() string { return fmt.Sprintf("%d", e.N) }

func (*ExistsExpr) exprNode() {}
func (*CmpExpr) exprNode()    {}
func (*AndExpr) exprNode()    {}
func (*OrExpr) exprNode()     {}
func (*NotExpr) exprNode()    {}
func (*PosExpr) exprNode()    {}

// quoteLiteral renders a comparison literal so it re-parses to the
// same value: numbers bare, strings under whichever quote character
// the value does not contain (the lexer has no escape sequences, so
// a single-quoted literal can never hold a single quote — but it can
// hold double quotes, and vice versa).
func quoteLiteral(s string) string {
	if isNumber(s) && lexesAsNumber(s) {
		return s
	}
	if strings.Contains(s, "'") {
		return `"` + s + `"`
	}
	return "'" + s + "'"
}

// lexesAsNumber reports whether the lexer would read s back as one
// number token: an optional leading minus, then digits and dots.
// ParseFloat alone is too broad here ("+1", "1e5", "Inf" all parse
// as floats but not as lexer numbers); such literals stay quoted,
// which compares identically.
func lexesAsNumber(s string) bool {
	if s == "" {
		return false
	}
	body := s
	if s[0] == '-' {
		body = s[1:]
	}
	if body == "" || body[0] < '0' || body[0] > '9' {
		return false
	}
	for i := 0; i < len(body); i++ {
		if c := body[i]; (c < '0' || c > '9') && c != '.' {
			return false
		}
	}
	return true
}

// Clone deep-copies the path so translations can rewrite it freely.
func (p *Path) Clone() *Path {
	cp := &Path{Absolute: p.Absolute}
	cp.Steps = make([]Step, len(p.Steps))
	cp.Desc = append([]bool(nil), p.Desc...)
	for i, s := range p.Steps {
		ns := Step{Axis: s.Axis, Test: s.Test}
		for _, pr := range s.Preds {
			ns.Preds = append(ns.Preds, cloneExpr(pr))
		}
		cp.Steps[i] = ns
	}
	return cp
}

func cloneExpr(e Expr) Expr {
	switch v := e.(type) {
	case *ExistsExpr:
		return &ExistsExpr{Path: v.Path.Clone()}
	case *CmpExpr:
		return &CmpExpr{Path: v.Path.Clone(), Op: v.Op, Literal: v.Literal, Range: v.Range, Hi: v.Hi}
	case *AndExpr:
		return &AndExpr{L: cloneExpr(v.L), R: cloneExpr(v.R)}
	case *OrExpr:
		return &OrExpr{L: cloneExpr(v.L), R: cloneExpr(v.R)}
	case *NotExpr:
		return &NotExpr{E: cloneExpr(v.E)}
	case *PosExpr:
		return &PosExpr{N: v.N}
	default:
		panic(fmt.Sprintf("xpath: unknown expr %T", e))
	}
}

// RewriteTags applies fn to every node-test name in the path,
// including names inside predicates. It is used by the client query
// translator to replace plaintext tags with their Vernam ciphertexts.
func (p *Path) RewriteTags(fn func(name string, attr bool) string) {
	for i := range p.Steps {
		st := &p.Steps[i]
		if !st.Test.Wildcard && !st.Test.Text {
			st.Test.Name = fn(st.Test.Name, st.Axis == AxisAttribute)
		}
		for _, pr := range st.Preds {
			rewriteExprTags(pr, fn)
		}
	}
}

func rewriteExprTags(e Expr, fn func(string, bool) string) {
	switch v := e.(type) {
	case *ExistsExpr:
		v.Path.RewriteTags(fn)
	case *CmpExpr:
		v.Path.RewriteTags(fn)
	case *AndExpr:
		rewriteExprTags(v.L, fn)
		rewriteExprTags(v.R, fn)
	case *OrExpr:
		rewriteExprTags(v.L, fn)
		rewriteExprTags(v.R, fn)
	case *NotExpr:
		rewriteExprTags(v.E, fn)
	}
}

// RewriteCmps applies fn to every value comparison in the path's
// predicates (recursively). fn may mutate the CmpExpr in place; the
// client translator uses this to turn equality/inequality literals
// into OPESS ciphertext ranges (paper Fig. 7a).
func (p *Path) RewriteCmps(fn func(*CmpExpr)) {
	for i := range p.Steps {
		for _, pr := range p.Steps[i].Preds {
			rewriteExprCmps(pr, fn)
		}
	}
}

func rewriteExprCmps(e Expr, fn func(*CmpExpr)) {
	switch v := e.(type) {
	case *ExistsExpr:
		v.Path.RewriteCmps(fn)
	case *CmpExpr:
		v.Path.RewriteCmps(fn)
		fn(v)
	case *AndExpr:
		rewriteExprCmps(v.L, fn)
		rewriteExprCmps(v.R, fn)
	case *OrExpr:
		rewriteExprCmps(v.L, fn)
		rewriteExprCmps(v.R, fn)
	case *NotExpr:
		rewriteExprCmps(v.E, fn)
	}
}

// Tags returns every node-test name mentioned anywhere in the path,
// attribute names prefixed with "@".
func (p *Path) Tags() []string {
	seen := map[string]bool{}
	var out []string
	add := func(name string, attr bool) string {
		key := name
		if attr {
			key = "@" + name
		}
		if !seen[key] {
			seen[key] = true
			out = append(out, key)
		}
		return name
	}
	cp := p.Clone()
	cp.RewriteTags(add)
	return out
}
