package client

import (
	"strings"
	"testing"

	"repro/internal/scheme"
	"repro/internal/wire"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// TestSpliceMalformedPlaceholder: a placeholder that is unterminated,
// has no id or a non-numeric one, or names a block the answer does not
// carry fails the assembly.
func TestSpliceMalformedPlaceholder(t *testing.T) {
	c, _, _ := fixture(t)
	cases := []struct {
		frag   string
		blocks map[int][]byte
		why    string
	}{
		{`<patient><EncBlock id="0"`, map[int][]byte{0: []byte("<_blk><a/></_blk>")}, "unterminated placeholder"},
		{`<patient><EncBlock nothing="1"/></patient>`, nil, "placeholder without id"},
		{`<patient><EncBlock id="x"/></patient>`, nil, "placeholder with a non-numeric id"},
		{`<patient><EncBlock id="7"/></patient>`, nil, "missing block"},
	}
	for _, tc := range cases {
		ans := &wire.Answer{Fragments: [][]byte{[]byte(tc.frag)}}
		if _, err := c.PostProcessFull(xpath.MustParse("//patient"), ans, tc.blocks); err == nil {
			t.Errorf("%s accepted", tc.why)
		}
	}
}

// TestSpliceReplacesOnlyRealPlaceholders: every placeholder tag is
// replaced by its block's content, and the escaped text of one — in a
// value or an attribute — is data, not a placeholder.
func TestSpliceReplacesOnlyRealPlaceholders(t *testing.T) {
	c, _, _ := fixture(t)
	ans := &wire.Answer{
		Fragments: [][]byte{[]byte(`<p note="&lt;EncBlock id=&quot;9&quot;/&gt;"><EncBlock id="2" attr="1"/><v>&lt;EncBlock id="9"/&gt;</v><EncBlock id="0"/></p>`)},
		BlockIDs:  []int{0, 2},
	}
	blocks := map[int][]byte{0: []byte("<_blk><a>1</a></_blk>"), 2: []byte("<_blk><_attr name=\"k\">v</_attr></_blk>")}
	res, err := c.PostProcessFull(xpath.MustParse("//p"), ans, blocks)
	if err != nil {
		t.Fatalf("PostProcessFull: %v", err)
	}
	want := `<hospital><p note="&lt;EncBlock id=&quot;9&quot;/&gt;" k="v"><v>&lt;EncBlock id="9"/&gt;</v><a>1</a></p></hospital>`
	if got := res.Doc.String(); got != want {
		t.Errorf("assembled:\n got  %s\n want %s", got, want)
	}
	ids := map[int]string{}
	for n, id := range res.BlockOf {
		ids[id] = n.Path()
	}
	if len(ids) != 2 || ids[0] != "/hospital/p/a" || ids[2] != "/hospital/p/@k" {
		t.Errorf("provenance = %v, want block 0 at /hospital/p/a and block 2 at /hospital/p/@k", ids)
	}
}

// TestSpliceNoPlaceholderPassthrough: a fragment without placeholders
// is its own parse, under the synthetic root.
func TestSpliceNoPlaceholderPassthrough(t *testing.T) {
	c, _, _ := fixture(t)
	frag := `<patient><age>35</age></patient>`
	ans := &wire.Answer{Fragments: [][]byte{[]byte(frag)}}
	res, err := c.PostProcessFull(xpath.MustParse("//age"), ans, nil)
	if err != nil {
		t.Fatalf("PostProcessFull: %v", err)
	}
	if got, want := res.Doc.String(), "<hospital>"+frag+"</hospital>"; got != want {
		t.Errorf("assembled %s, want %s", got, want)
	}
	if len(res.Nodes) != 1 || len(res.BlockOf) != 0 {
		t.Errorf("%d results and %d provenance entries, want 1 and 0", len(res.Nodes), len(res.BlockOf))
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

// decryptAll decrypts every block of a hosted database.
func decryptAll(t *testing.T, c *Client, db *wire.HostedDB) map[int][]byte {
	t.Helper()
	blocks := map[int][]byte{}
	for id, ct := range db.Blocks {
		pt, err := c.keys.DecryptBlock(ct)
		if err != nil {
			t.Fatal(err)
		}
		blocks[id] = pt
	}
	return blocks
}

// fragmentAnswer is the answer an honest server gives for the residue
// fragments rooted at ns: their serialization, every block they
// reference, and the extra directly matched blocks.
func fragmentAnswer(t *testing.T, ns []*xmltree.Node, direct ...int) *wire.Answer {
	t.Helper()
	ans := &wire.Answer{}
	for _, n := range ns {
		frag, err := wire.SerializeFragment(n)
		if err != nil {
			t.Fatal(err)
		}
		ans.Fragments = append(ans.Fragments, frag)
		if err := wire.PlaceholderIDs(frag, func(id, _, _ int) { ans.BlockIDs = append(ans.BlockIDs, id) }); err != nil {
			t.Fatal(err)
		}
	}
	ans.BlockIDs = append(ans.BlockIDs, direct...)
	return ans
}

// checkAgainstReference runs one answer through PostProcessFull and the
// reference assembly under each query and requires the same outcome:
// the same error, or the same tree, results and provenance.
func checkAgainstReference(t *testing.T, name string, c *Client, ans *wire.Answer, blocks map[int][]byte, queries ...string) {
	t.Helper()
	for _, qs := range queries {
		q := xpath.MustParse(qs)
		want, wantErr := refPostProcessFull(c, q, ans, blocks)
		got, gotErr := c.PostProcessFull(q, ans, blocks)
		if (wantErr == nil) != (gotErr == nil) || (wantErr != nil && wantErr.Error() != gotErr.Error()) {
			t.Fatalf("%s, %s: error %v, the reference %v", name, qs, gotErr, wantErr)
		}
		if wantErr != nil {
			continue
		}
		if err := samePostResult(got, want); err != nil {
			t.Fatalf("%s, %s: %v", name, qs, err)
		}
	}
}

// TestAssembleNumbersOnce: the one-pass build is numbered once, at the
// end, and every node carries the preorder ID the reference assembly
// gives it — which is what xpath.Evaluate orders results by.
func TestAssembleNumbersOnce(t *testing.T) {
	c, _, db := fixture(t)
	blocks := decryptAll(t, c, db)
	patients := db.Residue.Root.ElementChildren()
	last := len(db.Blocks) - 1
	cases := map[string]*wire.Answer{
		"whole residue":    fragmentAnswer(t, []*xmltree.Node{db.Residue.Root}),
		"two fragments":    fragmentAnswer(t, patients[:2]),
		"a lone block":     {BlockIDs: []int{0}},
		"fragment + block": fragmentAnswer(t, patients[:1], last),
	}
	for name, ans := range cases {
		checkAgainstReference(t, name, c, ans, blocks, "//patient", "//*", "/hospital/patient/pname", "//@coverage")
	}
}

// TestAssemblyCraftedCases holds the one-pass build to the reference
// assembly where they could part: attribute blocks inside and outside
// fragments, a fragment or a block that is the document root itself,
// an empty answer and missing blocks.
func TestAssemblyCraftedCases(t *testing.T) {
	c, doc, db := fixture(t)
	blocks := decryptAll(t, c, db)
	attrBlk := map[int][]byte{
		5: []byte(`<_blk><_attr name="k">v</_attr><_decoy>zz</_decoy></_blk>`),
		6: []byte(`<_blk><treat><disease>flu</disease></treat></_blk>`),
	}
	queries := []string{"//patient", "//@k", "//*", "/hospital", "//patient[@k='v']/pname", "//disease/.."}
	cases := map[string]struct {
		ans    *wire.Answer
		blocks map[int][]byte
	}{
		"attribute block between element children": {
			&wire.Answer{Fragments: [][]byte{[]byte(`<patient><pname>A</pname><EncBlock id="5" attr="1"/><EncBlock id="6"/><age>3</age></patient>`)}, BlockIDs: []int{5, 6}},
			attrBlk,
		},
		"directly matched attribute block": {
			&wire.Answer{Fragments: [][]byte{[]byte(`<patient><pname>A</pname></patient>`)}, BlockIDs: []int{5}},
			attrBlk,
		},
		"a lone attribute block":      {&wire.Answer{BlockIDs: []int{5}}, attrBlk},
		"fragment rooted at the root": {fragmentAnswer(t, []*xmltree.Node{db.Residue.Root}), blocks},
		"empty answer":                {&wire.Answer{}, nil},
		"missing fragment block": {
			&wire.Answer{Fragments: [][]byte{[]byte(`<patient><EncBlock id="0"/><EncBlock id="7"/></patient>`)}, BlockIDs: []int{0}},
			blocks,
		},
		"missing direct block": {&wire.Answer{BlockIDs: []int{99}}, blocks},
	}
	for name, tc := range cases {
		checkAgainstReference(t, name, c, tc.ans, tc.blocks, queries...)
	}

	// The top scheme: the whole document is block 0, shipped under the
	// residue's lone placeholder or matched directly.
	top, err := New([]byte("top-key"))
	if err != nil {
		t.Fatal(err)
	}
	topDB, err := top.Encrypt(doc, scheme.Top(doc))
	if err != nil {
		t.Fatal(err)
	}
	topBlocks := decryptAll(t, top, topDB)
	checkAgainstReference(t, "top scheme, placeholder", top, fragmentAnswer(t, []*xmltree.Node{topDB.Residue.Root}), topBlocks, queries...)
	checkAgainstReference(t, "top scheme, direct", top, &wire.Answer{BlockIDs: []int{0}}, topBlocks, queries...)
	res, err := top.PostProcessFull(xpath.MustParse("/hospital/patient"), &wire.Answer{BlockIDs: []int{0}}, topBlocks)
	if err != nil || len(res.Nodes) != 2 || res.Doc.Root.Tag != "hospital" || res.BlockOf[res.Doc.Root] != 0 {
		t.Errorf("top scheme: %d patients under <%s>, %v; want 2 under the collapsed <hospital>, block 0", len(res.Nodes), res.Doc.Root.Tag, err)
	}
}
