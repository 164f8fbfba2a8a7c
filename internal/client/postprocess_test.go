package client

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/wire"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

func TestSpliceMalformedPlaceholder(t *testing.T) {
	c, _, _ := fixture(t)
	frag := []byte(`<patient><EncBlock id="0"`)
	if _, err := c.splice(frag, map[int][]byte{0: []byte("<_blk/>")}, map[int]bool{}); err == nil {
		t.Errorf("unterminated placeholder accepted")
	}
	frag = []byte(`<patient><EncBlock nothing="1"/></patient>`)
	if _, err := c.splice(frag, map[int][]byte{}, map[int]bool{}); err == nil {
		t.Errorf("placeholder without id accepted")
	}
	frag = []byte(`<patient><EncBlock id="x"/></patient>`)
	if _, err := c.splice(frag, map[int][]byte{}, map[int]bool{}); err == nil {
		t.Errorf("placeholder with a non-numeric id accepted")
	}
	frag = []byte(`<patient><EncBlock id="7"/></patient>`)
	if _, err := c.splice(frag, map[int][]byte{}, map[int]bool{}); err == nil {
		t.Errorf("missing block accepted")
	}
}

// TestSpliceReplacesOnlyRealPlaceholders: every placeholder tag is
// replaced by its block, byte for byte around it, and the escaped text
// of one — in a value or an attribute — is data, not a placeholder.
func TestSpliceReplacesOnlyRealPlaceholders(t *testing.T) {
	c, _, _ := fixture(t)
	frag := []byte(`<p note="&lt;EncBlock id=&quot;9&quot;/&gt;"><EncBlock id="2" attr="1"/><v>&lt;EncBlock id="9"/&gt;</v><EncBlock id="0"/></p>`)
	blocks := map[int][]byte{0: []byte("<_blk><a>1</a></_blk>"), 2: []byte("<_blk><_attr name=\"k\">v</_attr></_blk>")}
	used := map[int]bool{}
	got, err := c.splice(frag, blocks, used)
	if err != nil {
		t.Fatalf("splice: %v", err)
	}
	want := `<p note="&lt;EncBlock id=&quot;9&quot;/&gt;"><_blk id="2"><_attr name="k">v</_attr></_blk><v>&lt;EncBlock id="9"/&gt;</v><_blk id="0"><a>1</a></_blk></p>`
	if string(got) != want {
		t.Errorf("spliced:\n got  %s\n want %s", got, want)
	}
	if len(used) != 2 || !used[0] || !used[2] {
		t.Errorf("used = %v, want blocks 0 and 2", used)
	}
}

func TestSpliceNoPlaceholderPassthrough(t *testing.T) {
	c, _, _ := fixture(t)
	frag := []byte(`<patient><age>35</age></patient>`)
	out, err := c.splice(frag, nil, map[int]bool{})
	if err != nil {
		t.Fatalf("splice: %v", err)
	}
	if string(out) != string(frag) {
		t.Errorf("passthrough modified bytes")
	}
}

func TestAnnotateBlockID(t *testing.T) {
	got := appendAnnotated(nil, []byte("<_blk><a>1</a></_blk>"), 42)
	if !strings.HasPrefix(string(got), `<_blk id="42">`) {
		t.Errorf("annotation missing: %s", got)
	}
	// Non-envelope bytes pass through untouched.
	raw := []byte("<other/>")
	if string(appendAnnotated(nil, raw, 1)) != "<other/>" {
		t.Errorf("non-envelope bytes modified")
	}
}

func TestTopTag(t *testing.T) {
	cases := map[string]string{
		"<a>x</a>":      "a",
		"<ab c=\"1\"/>": "ab",
		"<a/>":          "a",
		"":              "",
		"plain":         "",
		"<a\nb=\"1\">x": "a",
	}
	for in, want := range cases {
		if got := topTag([]byte(in)); got != want {
			t.Errorf("topTag(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestPostProcessProvenance(t *testing.T) {
	c, doc, db := fixture(t)
	_ = doc
	// Build an answer containing one fragment referencing blocks plus
	// a directly-matched block, then confirm provenance maps content
	// roots to block IDs.
	frag := db.Residue.Root.ElementChildren()[0] // first patient (residue)
	var buf strings.Builder
	if err := xmltree.NewDocument(frag.Clone()).Serialize(&buf, false); err != nil {
		t.Fatal(err)
	}
	ans := &wire.Answer{Fragments: [][]byte{[]byte(buf.String())}}
	// Collect the blocks the fragment references.
	frag.Walk(func(n *xmltree.Node) bool {
		if n.Kind == xmltree.Element && n.Tag == wire.PlaceholderTag {
			if idStr, ok := n.Attr("id"); ok {
				var id int
				if _, err := parseInt(idStr, &id); err == nil {
					ans.BlockIDs = append(ans.BlockIDs, id)
					ans.Blocks = append(ans.Blocks, db.Blocks[id])
				}
			}
		}
		return true
	})
	blocks, err := c.DecryptBlocks(ans)
	if err != nil {
		t.Fatalf("DecryptBlocks: %v", err)
	}
	res, err := c.PostProcessFull(xpath.MustParse("//patient"), ans, blocks)
	if err != nil {
		t.Fatalf("PostProcessFull: %v", err)
	}
	if len(res.BlockOf) != len(ans.BlockIDs) {
		t.Errorf("provenance entries = %d, want %d", len(res.BlockOf), len(ans.BlockIDs))
	}
	seen := map[int]bool{}
	for node, id := range res.BlockOf {
		if node == nil {
			t.Errorf("nil provenance node")
		}
		seen[id] = true
	}
	for _, id := range ans.BlockIDs {
		if !seen[id] {
			t.Errorf("block %d missing from provenance", id)
		}
	}
}

func parseInt(s string, out *int) (int, error) {
	n := 0
	for _, r := range s {
		if r < '0' || r > '9' {
			return 0, errNotDigit
		}
		n = n*10 + int(r-'0')
	}
	*out = n
	return n, nil
}

var errNotDigit = &parseErr{}

type parseErr struct{}

func (*parseErr) Error() string { return "not a digit" }

func TestApplyValueEditErrors(t *testing.T) {
	c, _, _ := fixture(t)
	if err := c.ApplyValueEdit("nosuchattr", "a", "b", 0); err == nil {
		t.Errorf("unknown attribute accepted")
	}
	// disease is indexed under the optimal scheme (cover includes it).
	tag := "disease"
	if _, ok := c.loadAttrs()[tag]; !ok {
		t.Skipf("cover did not include %s", tag)
	}
	if err := c.ApplyValueEdit(tag, "diarrhea", "flu", 99999); err == nil {
		t.Errorf("wrong block accepted")
	}
	if err := c.ApplyValueEdit(tag, "same", "same", 0); err != nil {
		t.Errorf("no-op edit rejected: %v", err)
	}
}

func TestRebuildEntriesUnknownAttr(t *testing.T) {
	c, _, _ := fixture(t)
	if _, _, err := c.RebuildEntries("ghost"); err == nil {
		t.Errorf("unknown attribute accepted")
	}
}

func TestAttributeDomainRange(t *testing.T) {
	c, _, _ := fixture(t)
	if _, _, _, ok := c.AttributeDomainRange("ghost"); ok {
		t.Errorf("unknown attribute reported indexed")
	}
	lo, hi, _, ok := c.AttributeDomainRange("policy")
	if !ok {
		t.Fatalf("policy should be indexed")
	}
	if lo >= hi {
		t.Errorf("degenerate domain range [%d, %d]", lo, hi)
	}
	if b, ok := c.IndexedBand("policy"); !ok || b == 0 {
		t.Errorf("policy band = %d, %v", b, ok)
	}
}

// assembleBefore is assemble as it stood when the combined answer was
// parsed into a Document (numbering it), rewritten, and wrapped in a
// second Document (numbering it again): the reference for
// TestAssembleNumbersOnce.
func assembleBefore(c *Client, parts [][]byte) (*xmltree.Document, error) {
	combined := parts[0]
	wrapped := len(parts) != 1 || topTag(parts[0]) != c.rootTag
	if wrapped {
		combined = []byte("<" + c.rootTag + ">" + string(bytes.Join(parts, nil)) + "</" + c.rootTag + ">")
	}
	doc, err := xmltree.ParseCompact(combined)
	if err != nil {
		return nil, err
	}
	root, err := c.resolveTree(doc.Root, nil)
	if err != nil {
		return nil, err
	}
	if wrapped && root.Tag == c.rootTag && len(root.Children) == 1 {
		if ch := root.Children[0]; ch.Kind == xmltree.Element && ch.Tag == c.rootTag {
			ch.Parent = nil
			root = ch
		}
	}
	return xmltree.NewDocument(root), nil
}

// TestAssembleNumbersOnce: parsing to a bare root and numbering the
// rewritten tree once yields the document the parse-number-rewrite-
// renumber sequence did — same serialization, and the same preorder ID
// on every node, which is what xpath.Evaluate orders results by.
func TestAssembleNumbersOnce(t *testing.T) {
	c, _, db := fixture(t)
	blocks := map[int][]byte{}
	for id, ct := range db.Blocks {
		pt, err := c.keys.DecryptBlock(ct)
		if err != nil {
			t.Fatal(err)
		}
		blocks[id] = pt
	}
	splice := func(n *xmltree.Node) []byte {
		frag, err := wire.SerializeFragment(n)
		if err != nil {
			t.Fatal(err)
		}
		out, err := c.splice(frag, blocks, map[int]bool{})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	patients := db.Residue.Root.ElementChildren()
	cases := map[string][][]byte{
		"whole residue":    {splice(db.Residue.Root)},
		"two fragments":    {splice(patients[0]), splice(patients[1])},
		"a lone block":     {appendAnnotated(nil, blocks[0], 0)},
		"fragment + block": {splice(patients[0]), appendAnnotated(nil, blocks[len(blocks)-1], len(blocks)-1)},
	}
	for name, parts := range cases {
		want, err := assembleBefore(c, parts)
		if err != nil {
			t.Fatalf("%s: reference: %v", name, err)
		}
		got, err := c.assemble(parts, map[*xmltree.Node]int{})
		if err != nil {
			t.Fatalf("%s: assemble: %v", name, err)
		}
		if got.String() != want.String() || got.Size() != want.Size() {
			t.Fatalf("%s: assembled\n %s\nwant\n %s", name, got, want)
		}
		next := 0
		got.Root.Walk(func(n *xmltree.Node) bool {
			if w := want.NodeByID(next); n.ID != next || got.NodeByID(next) != n || w.Kind != n.Kind || w.Tag != n.Tag || w.Value != n.Value {
				t.Fatalf("%s: node %d in document order is %s with ID %d; the reference has %s", name, next, n.Path(), n.ID, w.Path())
			}
			next++
			return true
		})
	}
}
