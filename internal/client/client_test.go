package client

import (
	"strings"
	"testing"

	"repro/internal/sc"
	"repro/internal/scheme"
	"repro/internal/wire"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

const hospitalXML = `
<hospital>
  <patient>
    <pname>Betty</pname>
    <SSN>763895</SSN>
    <insurance coverage="1000000"><policy>34221</policy><policy>9983</policy></insurance>
    <treat><disease>diarrhea</disease><doctor>Smith</doctor></treat>
    <age>35</age>
  </patient>
  <patient>
    <pname>Matt</pname>
    <SSN>276543</SSN>
    <insurance coverage="10000"><policy>26544</policy></insurance>
    <treat><disease>leukemia</disease><doctor>Walker</doctor></treat>
    <treat><disease>diarrhea</disease><doctor>Brown</doctor></treat>
    <age>40</age>
  </patient>
</hospital>`

var paperSCs = []string{
	"//insurance",
	"//patient:(/pname, /SSN)",
	"//patient:(/pname, //disease)",
	"//treat:(/disease, /doctor)",
}

func fixture(t *testing.T) (*Client, *xmltree.Document, *wire.HostedDB) {
	t.Helper()
	doc, err := xmltree.ParseString(hospitalXML)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	cs, err := sc.ParseAll(paperSCs)
	if err != nil {
		t.Fatalf("scs: %v", err)
	}
	sch, err := scheme.Optimal(doc, cs)
	if err != nil {
		t.Fatalf("scheme: %v", err)
	}
	c, err := New([]byte("client-test"))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	db, err := c.Encrypt(doc, sch)
	if err != nil {
		t.Fatalf("Encrypt: %v", err)
	}
	return c, doc, db
}

func TestNewRejectsEmptyKey(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Errorf("empty key accepted")
	}
}

func TestEncryptBlocksDecryptable(t *testing.T) {
	c, _, db := fixture(t)
	for id, ct := range db.Blocks {
		pt, err := c.keys.DecryptBlock(ct)
		if err != nil {
			t.Fatalf("block %d: %v", id, err)
		}
		doc, err := xmltree.ParseString(string(pt))
		if err != nil {
			t.Fatalf("block %d parse: %v", id, err)
		}
		if doc.Root.Tag != wire.BlockWrapTag {
			t.Errorf("block %d root = %s, want %s", id, doc.Root.Tag, wire.BlockWrapTag)
		}
	}
}

func TestEncryptedLeafBlocksCarryDecoys(t *testing.T) {
	c, _, db := fixture(t)
	decoys := 0
	for _, ct := range db.Blocks {
		pt, _ := c.keys.DecryptBlock(ct)
		if strings.Contains(string(pt), "<"+wire.DecoyTag+">") {
			decoys++
		}
	}
	// Under the optimal scheme, all leaf cover blocks (pname-or-SSN +
	// disease = 5) carry decoys; insurance subtrees do not.
	if decoys != 5 {
		t.Errorf("decoyed blocks = %d, want 5", decoys)
	}
}

func TestDecoysAreDistinct(t *testing.T) {
	c, _, db := fixture(t)
	seen := map[string]bool{}
	for _, ct := range db.Blocks {
		pt, _ := c.keys.DecryptBlock(ct)
		s := string(pt)
		i := strings.Index(s, "<"+wire.DecoyTag+">")
		if i < 0 {
			continue
		}
		j := strings.Index(s[i:], "</")
		d := s[i : i+j]
		if seen[d] {
			t.Fatalf("decoy %q repeats", d)
		}
		seen[d] = true
	}
}

func TestResidueHasPlaceholders(t *testing.T) {
	_, _, db := fixture(t)
	res := db.Residue.String()
	if !strings.Contains(res, wire.PlaceholderTag) {
		t.Fatalf("residue has no placeholders:\n%s", res)
	}
	// Placeholders count equals block count.
	n := strings.Count(res, "<"+wire.PlaceholderTag+" ")
	if n != len(db.Blocks) {
		t.Errorf("placeholders = %d, blocks = %d", n, len(db.Blocks))
	}
	// Residue intervals cover every residue element/attribute.
	for _, node := range db.Residue.Nodes() {
		if node.Kind == xmltree.Text {
			continue
		}
		if node.Tag == "id" || node.Tag == "attr" {
			continue // placeholder bookkeeping attributes
		}
		if _, ok := db.ResidueIntervals[node]; !ok {
			t.Errorf("residue node %s has no interval", node.Path())
		}
	}
}

func TestValueIndexCoversEncryptedLeaves(t *testing.T) {
	c, doc, db := fixture(t)
	if len(db.IndexEntries) == 0 {
		t.Fatalf("no index entries")
	}
	// Every encrypted leaf tag got an OPESS attribute.
	wantTags := map[string]bool{"policy": true, "@coverage": true, "disease": true}
	// plus whichever of pname/SSN the cover chose
	if _, ok := c.loadAttrs()["pname"]; ok {
		wantTags["pname"] = true
	} else {
		wantTags["SSN"] = true
	}
	for tag := range wantTags {
		if _, ok := c.loadAttrs()[tag]; !ok {
			t.Errorf("missing OPESS attribute for %s (have %v)", tag, keysOf(c.loadAttrs()))
		}
	}
	_ = doc
}

func keysOf[V any](m map[string]V) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

func TestTranslateEncryptsTags(t *testing.T) {
	c, _, _ := fixture(t)
	q := xpath.MustParse("//patient[.//insurance//@coverage>=10000]//SSN")
	tq, err := c.Translate(q)
	if err != nil {
		t.Fatalf("Translate: %v", err)
	}
	steps := tq.Steps()
	if len(steps) != 2 {
		t.Fatalf("translated steps = %d", len(steps))
	}
	// patient is plaintext: label is the plaintext tag.
	if steps[0].Labels[0] != "patient" {
		t.Errorf("patient label = %v", steps[0].Labels)
	}
	// The original tag "insurance" must not appear in any label of
	// the predicate (it is encrypted).
	pv, ok := steps[0].Preds[0].(*wire.PredValue)
	if !ok {
		t.Fatalf("predicate is %T", steps[0].Preds[0])
	}
	for st := pv.Path; st != nil; st = st.Next {
		for _, l := range st.Labels {
			if l == "insurance" || l == "@coverage" {
				t.Errorf("encrypted tag %q leaked in translated query", l)
			}
		}
	}
	if len(pv.Ranges) == 0 {
		t.Errorf("coverage comparison not translated to ranges")
	}
	if pv.Plain {
		t.Errorf("coverage is encrypted-only; Plain should be false")
	}
	// The literal must not appear either.
	if pv.Lit != "10000" {
		// Lit is retained for the plaintext half only; with
		// Plain=false the server ignores it, but it must not be
		// needed. (Documented behavior: kept for mixed tags.)
		t.Logf("note: Lit retained = %q", pv.Lit)
	}
}

func TestTranslatePlaintextComparison(t *testing.T) {
	c, _, _ := fixture(t)
	tq, err := c.Translate(xpath.MustParse("//patient[age>35]"))
	if err != nil {
		t.Fatalf("Translate: %v", err)
	}
	pv := tq.First.Preds[0].(*wire.PredValue)
	if !pv.Plain {
		t.Errorf("age is plaintext; Plain should be true")
	}
	if len(pv.Ranges) != 0 {
		t.Errorf("plaintext tag got ciphertext ranges")
	}
	if pv.Op != xpath.OpGt || pv.Lit != "35" {
		t.Errorf("plain comparison = %v %q", pv.Op, pv.Lit)
	}
}

func TestTranslateUnknownTag(t *testing.T) {
	c, _, _ := fixture(t)
	tq, err := c.Translate(xpath.MustParse("//nosuchtag"))
	if err != nil {
		t.Fatalf("Translate: %v", err)
	}
	if got := tq.First.Labels; len(got) != 1 || got[0] != "nosuchtag" {
		t.Errorf("unknown tag labels = %v", got)
	}
}

func TestTranslateDropsTextStep(t *testing.T) {
	c, _, _ := fixture(t)
	tq, err := c.Translate(xpath.MustParse("//pname/text()"))
	if err != nil {
		t.Fatalf("Translate: %v", err)
	}
	if len(tq.Steps()) != 1 {
		t.Errorf("text() step not dropped: %d steps", len(tq.Steps()))
	}
}

func TestTranslateSchemeAwareness(t *testing.T) {
	// Under the top scheme every tag is encrypted; translation must
	// produce only ciphertext labels.
	doc, _ := xmltree.ParseString(hospitalXML)
	c, _ := New([]byte("top-key"))
	if _, err := c.Encrypt(doc, scheme.Top(doc)); err != nil {
		t.Fatalf("Encrypt: %v", err)
	}
	tq, err := c.Translate(xpath.MustParse("//patient/pname"))
	if err != nil {
		t.Fatalf("Translate: %v", err)
	}
	for _, st := range tq.Steps() {
		for _, l := range st.Labels {
			if l == "patient" || l == "pname" {
				t.Errorf("plaintext label %q under top scheme", l)
			}
		}
	}
}

// TestUnwrapBlockErrors: the block reader refuses what is not one
// <_blk> envelope holding exactly one content element besides its decoy.
func TestUnwrapBlockErrors(t *testing.T) {
	for _, pt := range []string{
		`<wrong><a>1</a></wrong>`,
		`<_blk/>`,
		`<_blk><_decoy>x</_decoy></_blk>`,
		`<_blk><a>1</a><b>2</b></_blk>`,
		`<_blk><a>1</a>`,
		``,
	} {
		if n, err := ReadBlock([]byte(pt)); err == nil {
			t.Errorf("ReadBlock(%q) = %v, want an error", pt, n)
		}
	}
	n, err := ReadBlock([]byte(`<_blk><_attr name="k">v</_attr><_decoy>x</_decoy></_blk>`))
	if err != nil || n.Kind != xmltree.Attribute || n.Tag != "k" || n.Value != "v" || n.Parent != nil {
		t.Errorf("attribute block read as %v, %v", n, err)
	}
}

func TestAttributeBlockRoundTrip(t *testing.T) {
	// Force an attribute to be a block root via a custom scheme.
	doc, _ := xmltree.ParseString(hospitalXML)
	cs, _ := sc.ParseAll([]string{"//patient:(/insurance/@coverage, /pname)"})
	sch, err := scheme.Secure(doc, cs, map[string]bool{"@coverage": true})
	if err != nil {
		t.Fatalf("Secure: %v", err)
	}
	c, _ := New([]byte("attr-key"))
	db, err := c.Encrypt(doc, sch)
	if err != nil {
		t.Fatalf("Encrypt: %v", err)
	}
	// The residue's insurance elements should have a placeholder
	// child with attr="1" instead of the coverage attribute.
	res := db.Residue.String()
	if strings.Contains(res, "coverage") {
		t.Errorf("coverage attribute leaked:\n%s", res)
	}
	if !strings.Contains(res, `attr="1"`) {
		t.Errorf("attribute placeholder missing:\n%s", res)
	}
}
