// Package difftest is a differential correctness harness for the
// encrypted query pipeline: it generates randomized documents,
// security constraints and XPath queries, runs every query through
// the full encrypted round trip (translate → execute → decrypt →
// post-process) under each encryption scheme, and checks the answer
// node-for-node against a plaintext evaluation of the same query on
// the original document — the paper's correctness contract
// Q(δ(Qs(η(D)))) = Q(D), tested mechanically instead of by example.
//
// Two modes share the generator: the checked-in corpus of fixed
// seeds runs on every `go test`, and `-difftest.duration=30s` keeps
// drawing fresh seeds until the clock runs out (see difftest_test.go).
// Every failure message leads with the seed, so any discovered
// counterexample replays with a one-line test.
package difftest

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// Schemes is every encryption scheme the harness checks; a
// differential case passes only when all of them agree with the
// plaintext evaluation.
var Schemes = []core.SchemeName{
	core.SchemeOpt, core.SchemeApp, core.SchemeSub, core.SchemeTop, core.SchemeLeaf,
}

// CorpusSeeds is the checked-in corpus: a fixed spread of seeds (odd
// = XMark, even = NASA) that runs on every `go test`. When the
// open-ended mode finds a counterexample, its seed belongs here.
// The two large seeds were found by the open-ended mode:
// 1785901620815951921 — an empty server answer let the client's
// synthetic reassembly root satisfy "//site[not(closed_auctions)]"
// (fixed in client.PostProcessFull); 1785901796407847193 — the
// matcher claimed certain existence at a grouped in-block context,
// so "not(bidder)" under the top scheme dropped every grouped
// open_auction (fixed in exec.evalPred).
var CorpusSeeds = []uint64{
	1, 2, 3, 4, 5, 6, 7, 8, 9, 10,
	1785901620815951921,
	1785901796407847193,
}

// Case is one generated differential test case: a document, the
// security constraints to enforce on it, and the queries to compare.
type Case struct {
	Seed    uint64
	DocName string // "nasa" or "xmark"
	Doc     *xmltree.Document
	SCs     []string
	Queries []string
}

// GenCase derives a full case from one seed, deterministically: the
// document family and size, a random subset of the family's
// association constraints plus random node-type constraints, and a
// query mix drawn from the paper's three classes (§7.1) and from
// structural templates covering the query language (descendant
// steps, wildcards, parent steps, value/existence/negated
// predicates, attributes, text(), and/or).
func GenCase(seed uint64) *Case {
	r := datagen.NewRand(seed)
	c := &Case{Seed: seed}
	if seed%2 == 0 {
		c.DocName = "nasa"
		c.Doc = datagen.NASA(6+r.Intn(18), seed)
		c.SCs = subsetSCs(r, datagen.NASASCs())
	} else {
		c.DocName = "xmark"
		c.Doc = datagen.XMark(3+r.Intn(8), seed)
		c.SCs = subsetSCs(r, datagen.XMarkSCs())
	}
	c.SCs = append(c.SCs, nodeTypeSCs(r, c.Doc)...)

	for _, class := range []datagen.QueryClass{datagen.Qs, datagen.Qm, datagen.Ql} {
		c.Queries = append(c.Queries, datagen.Queries(c.Doc, class, 3, seed)...)
	}
	c.Queries = append(c.Queries, templateQueries(r, c.Doc, 12)...)
	return c
}

// subsetSCs keeps a random non-empty subset of the family's
// association constraints, so scheme construction sees varied
// constraint graphs instead of always the paper's full set.
func subsetSCs(r *datagen.Rand, all []string) []string {
	var out []string
	for _, s := range all {
		if r.Intn(4) != 0 { // keep with p = 3/4
			out = append(out, s)
		}
	}
	if len(out) == 0 {
		out = append(out, all[r.Intn(len(all))])
	}
	return out
}

// nodeTypeSCs adds up to two random node-type constraints ("//tag"):
// the chosen tags must be encrypted wherever they occur, which
// shifts block boundaries in ways the association set alone never
// exercises.
func nodeTypeSCs(r *datagen.Rand, doc *xmltree.Document) []string {
	var tags []string
	seen := map[string]bool{}
	for _, n := range doc.Nodes() {
		if n.Kind == xmltree.Element && n.Parent != nil && !seen[n.Tag] {
			seen[n.Tag] = true
			tags = append(tags, n.Tag)
		}
	}
	sort.Strings(tags)
	var out []string
	for i := 0; i < 2 && len(tags) > 0; i++ {
		if r.Intn(2) == 0 {
			out = append(out, "//"+tags[r.Intn(len(tags))])
		}
	}
	return out
}

// docShape indexes the document for the query templates: element
// parent→child pairs, ancestor→descendant pairs, leaves with safe
// values, and attributes.
type docShape struct {
	pairs  [][2]string // parent tag, child element tag
	deep   [][2]string // proper ancestor tag, descendant element tag
	leaves []*xmltree.Node
	attrs  [][2]string // owner tag, attribute name
}

func shapeOf(doc *xmltree.Document) *docShape {
	sh := &docShape{}
	seenPair := map[[2]string]bool{}
	seenDeep := map[[2]string]bool{}
	seenAttr := map[[2]string]bool{}
	for _, n := range doc.Nodes() {
		switch n.Kind {
		case xmltree.Attribute:
			k := [2]string{n.Parent.Tag, n.Tag}
			if !seenAttr[k] {
				seenAttr[k] = true
				sh.attrs = append(sh.attrs, k)
			}
		case xmltree.Element:
			if n.Parent != nil {
				k := [2]string{n.Parent.Tag, n.Tag}
				if !seenPair[k] {
					seenPair[k] = true
					sh.pairs = append(sh.pairs, k)
				}
				for a := n.Parent.Parent; a != nil; a = a.Parent {
					k := [2]string{a.Tag, n.Tag}
					if !seenDeep[k] {
						seenDeep[k] = true
						sh.deep = append(sh.deep, k)
					}
				}
			}
			if n.IsLeaf() && safeValue(n.LeafValue()) {
				sh.leaves = append(sh.leaves, n)
			}
		}
	}
	// doc.Nodes() is a deterministic pre-order walk, so the slices
	// are already reproducible; no extra sorting needed.
	return sh
}

func safeValue(v string) bool {
	return v != "" && !strings.ContainsAny(v, `'"`)
}

// templateQueries draws n queries from structural templates keyed to
// the indexed document shape, so every query is satisfiable by
// construction (empty results still occur via negation and unlucky
// value picks, which is part of the coverage).
func templateQueries(r *datagen.Rand, doc *xmltree.Document, n int) []string {
	sh := shapeOf(doc)
	var out []string
	for len(out) < n {
		var q string
		switch r.Intn(10) {
		case 0: // descendant pair with // step
			if len(sh.deep) == 0 {
				continue
			}
			p := sh.deep[r.Intn(len(sh.deep))]
			q = "//" + p[0] + "//" + p[1]
		case 1: // child step
			if len(sh.pairs) == 0 {
				continue
			}
			p := sh.pairs[r.Intn(len(sh.pairs))]
			q = "//" + p[0] + "/" + p[1]
		case 2: // wildcard child
			if len(sh.pairs) == 0 {
				continue
			}
			q = "//" + sh.pairs[r.Intn(len(sh.pairs))][0] + "/*"
		case 3: // parent step
			if len(sh.pairs) == 0 {
				continue
			}
			q = "//" + sh.pairs[r.Intn(len(sh.pairs))][1] + "/.."
		case 4: // existence predicate, possibly negated
			if len(sh.pairs) == 0 {
				continue
			}
			p := sh.pairs[r.Intn(len(sh.pairs))]
			if r.Intn(2) == 0 {
				q = "//" + p[0] + "[" + p[1] + "]"
			} else {
				q = "//" + p[0] + "[not(" + p[1] + ")]"
			}
		case 5: // value predicate on a leaf child, = or !=
			leaf := pickLeaf(r, sh)
			if leaf == nil || leaf.Parent == nil {
				continue
			}
			op := "="
			if r.Intn(3) == 0 {
				op = "!="
			}
			q = "//" + leaf.Parent.Tag + "[" + leaf.Tag + op + "'" + leaf.LeafValue() + "']"
		case 6: // self value predicate on the leaf itself
			leaf := pickLeaf(r, sh)
			if leaf == nil {
				continue
			}
			q = "//" + leaf.Tag + "[.='" + leaf.LeafValue() + "']"
		case 7: // attribute step or attribute predicate
			if len(sh.attrs) == 0 {
				continue
			}
			a := sh.attrs[r.Intn(len(sh.attrs))]
			if r.Intn(2) == 0 {
				q = "//" + a[0] + "/@" + a[1]
			} else {
				q = "//" + a[0] + "[@" + a[1] + "]"
			}
		case 8: // text() of a leaf
			leaf := pickLeaf(r, sh)
			if leaf == nil {
				continue
			}
			q = "//" + leaf.Tag + "/text()"
		case 9: // and / or of two existence predicates
			if len(sh.pairs) < 2 {
				continue
			}
			p1 := sh.pairs[r.Intn(len(sh.pairs))]
			p2 := sh.pairs[r.Intn(len(sh.pairs))]
			if p2[0] != p1[0] {
				continue // both predicates must hang off the same tag
			}
			conj := " or "
			if r.Intn(2) == 0 {
				conj = " and "
			}
			q = "//" + p1[0] + "[" + p1[1] + conj + p2[1] + "]"
		}
		if q != "" {
			out = append(out, q)
		}
	}
	return out
}

func pickLeaf(r *datagen.Rand, sh *docShape) *xmltree.Node {
	if len(sh.leaves) == 0 {
		return nil
	}
	return sh.leaves[r.Intn(len(sh.leaves))]
}

// RunCase hosts the case's document under every scheme and compares
// each query's encrypted answer against the plaintext evaluation,
// node-for-node (order-insensitive: both sides sorted). A
// non-nil error pinpoints the first mismatch and leads with the seed
// so the case replays exactly.
//
// Integrity is enabled on every system: each query additionally
// requests and verifies a Merkle proof, so the differential corpus
// doubles as a prover/verifier agreement test — an honest server's
// proof must verify on every generated document, SC set, and query
// shape.
//
// Every query runs twice, so the hot path — plan, ranges and answer
// served from the server's generation-keyed caches — must agree with
// the plaintext evaluation exactly as the cold path does.
func RunCase(c *Case) error {
	for _, name := range Schemes {
		sys, err := hostScheme(c, name, c.Doc)
		if err != nil {
			return err
		}
		if err := runQueries(c, name, sys, c.Doc); err != nil {
			return err
		}
	}
	return nil
}

// hostScheme boots one scheme's system for a case, integrity on.
func hostScheme(c *Case, name core.SchemeName, doc *xmltree.Document) (*core.System, error) {
	sys, err := core.Host(doc, c.SCs, name, []byte(fmt.Sprintf("difftest-%d", c.Seed)))
	if err != nil {
		return nil, fmt.Errorf("seed %d (%s): host scheme %s (SCs %v): %w",
			c.Seed, c.DocName, name, c.SCs, err)
	}
	if err := sys.EnableIntegrity(); err != nil {
		return nil, fmt.Errorf("seed %d (%s): scheme %s: EnableIntegrity: %w",
			c.Seed, c.DocName, name, err)
	}
	return sys, nil
}

// runQueries compares every case query, cold then hot, against the
// plaintext evaluation over ref (the document state the system is
// supposed to reflect).
func runQueries(c *Case, name core.SchemeName, sys *core.System, ref *xmltree.Document) error {
	for _, q := range c.Queries {
		want, err := plaintext(ref, q)
		if err != nil {
			return fmt.Errorf("seed %d (%s): query %q: plaintext: %w", c.Seed, c.DocName, q, err)
		}
		for _, pass := range []string{"cold", "hot"} {
			nodes, _, _, err := sys.Query(q)
			if err != nil {
				return fmt.Errorf("seed %d (%s): scheme %s query %q (%s): %w",
					c.Seed, c.DocName, name, q, pass, err)
			}
			got := core.ResultStrings(nodes)
			sort.Strings(got)
			if !equal(got, want) {
				return fmt.Errorf("seed %d (%s): scheme %s query %q (%s):\n  plaintext (%d): %v\n  encrypted (%d): %v",
					c.Seed, c.DocName, name, q, pass, len(want), want, len(got), got)
			}
		}
	}
	return nil
}

// RunCaseWithUpdates is RunCase with owner updates interleaved: after
// each full (cold + hot) query pass, a deterministic seed-derived
// edit renames every occurrence of some encrypted leaf value, the
// same edit is mirrored onto a plaintext reference clone, and the
// whole query list runs again. Every post-update pass therefore
// checks that the generation bump really invalidated the server's
// answer, range and plan caches — a stale cache serving the pre-update
// state diverges from the mirrored plaintext immediately.
func RunCaseWithUpdates(c *Case) error {
	const updateRounds = 2
	r := datagen.NewRand(c.Seed ^ 0x7570_6474) // "updt"
	for _, name := range Schemes {
		hostDoc := c.Doc.Clone()
		ref := c.Doc.Clone()
		sys, err := hostScheme(c, name, hostDoc)
		if err != nil {
			return err
		}
		if err := runQueries(c, name, sys, ref); err != nil {
			return err
		}
		for round := 0; round < updateRounds; round++ {
			q, newVal, ok := pickUpdate(r, ref, sys)
			if !ok {
				break // no encrypted updatable leaf under this scheme
			}
			n, err := sys.UpdateLeafValues(q, newVal)
			if err != nil {
				return fmt.Errorf("seed %d (%s): scheme %s round %d: update %q -> %q: %w",
					c.Seed, c.DocName, name, round, q, newVal, err)
			}
			mirrored := 0
			path, err := xpath.Parse(q)
			if err != nil {
				return fmt.Errorf("seed %d (%s): update query %q: %w", c.Seed, c.DocName, q, err)
			}
			for _, target := range xpath.Evaluate(ref, path) {
				target.SetLeafValue(newVal)
				mirrored++
			}
			if n != mirrored {
				return fmt.Errorf("seed %d (%s): scheme %s round %d: update %q touched %d encrypted leaves but %d plaintext leaves",
					c.Seed, c.DocName, name, round, q, n, mirrored)
			}
			if err := runQueries(c, name, sys, ref); err != nil {
				return fmt.Errorf("after update %q -> %q (round %d): %w", q, newVal, round, err)
			}
		}
	}
	return nil
}

// pickUpdate draws an update the current scheme accepts: a leaf value
// rename targeting every occurrence of one (tag, value) pair. Leaves
// outside the encryption cover are rejected by the client
// (plaintext values can't be rewritten through the encrypted update
// path), so candidates are probed with a dry run until one succeeds.
// The replacement preserves the value's band class — numeric stays
// numeric, string stays string — so the rename moves entries within
// the OPESS index rather than switching encodings.
func pickUpdate(r *datagen.Rand, ref *xmltree.Document, sys *core.System) (q, newVal string, ok bool) {
	sh := shapeOf(ref)
	for attempt := 0; attempt < 8; attempt++ {
		leaf := pickLeaf(r, sh)
		if leaf == nil {
			return "", "", false
		}
		val := leaf.LeafValue()
		q = "//" + leaf.Tag + "[.='" + val + "']"
		newVal = renameValue(val)
		if !safeValue(newVal) || newVal == val {
			continue
		}
		// Dry run: a zero-count or rejected update means this leaf is
		// not updatable under the scheme (plaintext, non-leaf after
		// grouping, …) — try another.
		if n, err := sys.UpdateLeafValues(q, val); err != nil || n != 0 {
			continue // same-value update must be a 0-count no-op
		}
		return q, newVal, true
	}
	return "", "", false
}

// renameValue derives a different value in the same band class.
func renameValue(v string) string {
	allDigits := v != ""
	for i := 0; i < len(v); i++ {
		if v[i] < '0' || v[i] > '9' {
			allDigits = false
			break
		}
	}
	if allDigits && len(v) < 18 {
		var n uint64
		fmt.Sscanf(v, "%d", &n)
		return fmt.Sprintf("%d", n+1)
	}
	return v + "u"
}

func plaintext(doc *xmltree.Document, q string) ([]string, error) {
	path, err := xpath.Parse(q)
	if err != nil {
		return nil, err
	}
	out := core.ResultStrings(xpath.Evaluate(doc, path))
	sort.Strings(out)
	return out, nil
}

func equal(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
