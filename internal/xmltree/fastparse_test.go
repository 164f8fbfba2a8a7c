package xmltree

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

// compactDocs and compactBad are the fastparse corpus: what ParseCompact
// must read exactly as Parse does, and what it must refuse.
var compactDocs = []string{
	`<a/>`,
	`<a>text</a>`,
	`<a k="v"/>`,
	`<a k="v" m="n"><b>1</b><c><d>2</d></c></a>`,
	`<r><v>a&lt;b&amp;c&gt;d</v><w q="x&quot;y"/></r>`,
	hospitalXML,
}

var compactBad = []string{
	"",
	"text only",
	"<a>",
	"<a></b>",
	"</a>",
	"<a/><b/>",
	"<a b=c/>",
	"<a b='single'/>",
	`<a b="unterminated/>`,
	"<a><b>x</b>mixed</a>",
	"< a/>",
	"<a",
}

func TestParseCompactMatchesParse(t *testing.T) {
	for _, in := range compactDocs {
		want, err := ParseString(in)
		if err != nil {
			t.Fatalf("Parse(%q): %v", in, err)
		}
		got, err := ParseCompact([]byte(want.String()))
		if err != nil {
			t.Fatalf("ParseCompact(%q): %v", want.String(), err)
		}
		if got.String() != want.String() {
			t.Errorf("mismatch:\n got  %s\n want %s", got.String(), want.String())
		}
		if got.Size() != want.Size() {
			t.Errorf("node counts differ: %d vs %d", got.Size(), want.Size())
		}
	}
}

func TestParseCompactErrors(t *testing.T) {
	for _, in := range compactBad {
		if _, err := ParseCompact([]byte(in)); err == nil {
			t.Errorf("ParseCompact(%q) succeeded, want error", in)
		}
	}
}

func TestParseCompactSelfClosing(t *testing.T) {
	d, err := ParseCompact([]byte(`<a><b/><c x="1"/></a>`))
	if err != nil {
		t.Fatalf("ParseCompact: %v", err)
	}
	if len(d.Root.ElementChildren()) != 2 {
		t.Errorf("children = %d", len(d.Root.ElementChildren()))
	}
	if v, ok := d.Root.ElementChildren()[1].Attr("x"); !ok || v != "1" {
		t.Errorf("attr = %q, %v", v, ok)
	}
}

func TestParseCompactSkipsInterTagWhitespace(t *testing.T) {
	d, err := ParseCompact([]byte("<a>\n  <b>1</b>\n  <c>2</c>\n</a>"))
	if err != nil {
		t.Fatalf("ParseCompact: %v", err)
	}
	if len(d.Root.ElementChildren()) != 2 {
		t.Errorf("children = %d", len(d.Root.ElementChildren()))
	}
}

// Property: ParseCompact inverts the compact serializer on random
// generated trees, exactly like Parse does.
func TestQuickParseCompactRoundTrip(t *testing.T) {
	f := func(seed uint32) bool {
		d := genDoc(seed)
		s := d.String()
		d2, err := ParseCompact([]byte(s))
		if err != nil {
			t.Logf("ParseCompact: %v\n%s", err, s)
			return false
		}
		return d2.String() == s && d2.Size() == d.Size()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// sameTree reports the first difference between two parsed trees:
// kind, tag, value, preorder ID, parent link and child order.
func sameTree(a, b *Node) error {
	if a.Kind != b.Kind || a.Tag != b.Tag || a.Value != b.Value || a.ID != b.ID || len(a.Children) != len(b.Children) {
		return fmt.Errorf("%s: (%v %q %q id %d, %d children) vs (%v %q %q id %d, %d children)",
			a.Path(), a.Kind, a.Tag, a.Value, a.ID, len(a.Children), b.Kind, b.Tag, b.Value, b.ID, len(b.Children))
	}
	for i := range a.Children {
		if a.Children[i].Parent != a || b.Children[i].Parent != b {
			return fmt.Errorf("%s: child %d has the wrong parent", a.Path(), i)
		}
		if err := sameTree(a.Children[i], b.Children[i]); err != nil {
			return err
		}
	}
	return nil
}

// TestParseCompactUnchanged holds the slab-allocating, name-interning
// parser to the one it replaced (refParseCompact): on the fastparse
// corpus, on random generated documents, and on those documents with
// bytes deleted, doubled or replaced — most of which no longer parse —
// the tree is node-for-node the same, IDs included, and an error is the
// same error, message and all. A Builder that already holds a tree
// parses the same standalone element, and fed the tree's serialization
// in two pieces split at a tag, under a root of its own, it builds the
// same tree below that root.
func TestParseCompactUnchanged(t *testing.T) {
	var inputs []string
	for _, in := range compactDocs {
		d, err := ParseString(in)
		if err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, in, d.String(), d.Pretty())
	}
	inputs = append(inputs, compactBad...)
	inputs = append(inputs, "<a>\n  <b>1</b>\n  <c>2</c>\n</a>", `<a><b/><c x="1"/></a>`, "<a>x<b/></a>", "<a> <b/> </a>",
		"<a>x</a>y", "<a b/>", `<a b="1"c="2"/>`, "<a/ >", "<a></a >", "<a><b></a></b>", "<>")
	for seed := uint32(0); seed < 200; seed++ {
		s := genDoc(seed).String()
		inputs = append(inputs, s)
		r := seed*2654435761 + 1
		for k := 0; k < 8; k++ {
			r = r*1664525 + 1013904223
			i := int(r>>8) % len(s)
			switch k % 4 {
			case 0:
				inputs = append(inputs, s[:i]+s[i+1:])
			case 1:
				inputs = append(inputs, s[:i]+s[i:i+1]+s[i:])
			case 2:
				inputs = append(inputs, s[:i]+string(`<>/"= &x`[int(r>>20)%8])+s[i+1:])
			case 3:
				inputs = append(inputs, s[:i])
			}
		}
	}
	parsed, refused := 0, 0
	for _, in := range inputs {
		want, wantErr := refParseCompact([]byte(in))
		got, gotErr := ParseCompact([]byte(in))
		if (wantErr == nil) != (gotErr == nil) || (wantErr != nil && wantErr.Error() != gotErr.Error()) {
			t.Fatalf("ParseCompact(%q): error %v, the reference %v", in, gotErr, wantErr)
		}
		b := NewBuilder("w", 0)
		if err := b.Feed([]byte(`<x k="v"><y>1</y></x>`)); err != nil {
			t.Fatal(err)
		}
		root, rootErr := b.Parse([]byte(in))
		if (rootErr == nil) != (gotErr == nil) || (rootErr != nil && rootErr.Error() != gotErr.Error()) {
			t.Fatalf("Builder.Parse(%q): error %v, ParseCompact %v", in, rootErr, gotErr)
		}
		if wantErr != nil {
			refused++
			continue
		}
		parsed++
		if err := sameTree(got.Root, want.Root); err != nil {
			t.Fatalf("ParseCompact(%q): %v", in, err)
		}
		if got.Size() != want.Size() || got.String() != want.String() {
			t.Fatalf("ParseCompact(%q): document differs from the reference", in)
		}
		if err := sameTree(NewDocument(root).Root, want.Root); err != nil {
			t.Fatalf("Builder.Parse(%q): %v", in, err)
		}
		// Split the canonical form, where every '<' starts a tag.
		canon := want.String()
		cut := strings.LastIndexByte(canon[:len(canon)/2+1], '<')
		fed := NewBuilder("w", len(canon))
		for _, piece := range []string{canon[:cut], canon[cut:]} {
			if err := fed.Feed([]byte(piece)); err != nil {
				t.Fatalf("Feed(%q): %v", piece, err)
			}
		}
		if err := fed.End(); err != nil {
			t.Fatalf("Feed(%q): %v", canon, err)
		}
		if kids := fed.Root().Children; len(kids) != 1 || kids[0].Parent != fed.Root() {
			t.Fatalf("Feed(%q): the root holds %d nodes, want 1", canon, len(kids))
		}
		canonWant, err := refParseCompact([]byte(canon))
		if err != nil {
			t.Fatalf("reference parse of %q: %v", canon, err)
		}
		top := fed.Root().Children[0]
		top.Parent = nil
		if err := sameTree(NewDocument(top).Root, canonWant.Root); err != nil {
			t.Fatalf("Feed(%q): %v", in, err)
		}
	}
	if parsed < 200 || refused < 200 {
		t.Fatalf("corpus too thin: %d inputs parsed, %d refused", parsed, refused)
	}
}

// TestBuilderPieces: fed bytes may open an element for a later Feed to
// close, attached nodes land inside the innermost open element (an
// attribute after its last attribute, ahead of element children), and
// neither a closing tag for the root nor one for an element not open
// is accepted.
func TestBuilderPieces(t *testing.T) {
	b := NewBuilder("r", 0)
	blk, err := b.Parse([]byte(`<c>2</c>`))
	if err != nil {
		t.Fatal(err)
	}
	steps := []func() error{
		func() error { return b.Feed([]byte(`<p k="1"><a>1</a>`)) },
		func() error { b.Attach(blk); return nil },
		func() error { b.Attach(NewAttribute("m", "2")); return nil },
		func() error { return b.Feed([]byte(`</p>`)) },
		func() error { b.Attach(NewAttribute("top", "3")); return nil },
		func() error { return b.Feed([]byte(`<q/>`)) },
		b.End,
	}
	for i, step := range steps {
		if err := step(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	const want = `<r top="3"><p k="1" m="2"><a>1</a><c>2</c></p><q/></r>`
	if got := NewDocument(b.Root()).String(); got != want {
		t.Errorf("built\n %s\nwant\n %s", got, want)
	}
	if blk.Parent == nil || blk.Parent.Tag != "p" {
		t.Errorf("attached element's parent = %v", blk.Parent)
	}

	b = NewBuilder("r", 0)
	if err := b.Feed([]byte(`<p>`)); err != nil {
		t.Fatal(err)
	}
	if err := b.End(); err == nil {
		t.Errorf("End with <p> open succeeded")
	}
	if err := b.Feed([]byte(`</p></r>`)); err == nil {
		t.Errorf("closing the builder's root succeeded")
	}
	if err := NewBuilder("r", 0).Feed([]byte(`</x>`)); err == nil {
		t.Errorf("closing an element never opened succeeded")
	}
	if err := NewBuilder("r", 0).Feed([]byte(`<a>1</a><b>x</b>`)); err != nil {
		t.Errorf("two elements under the root: %v", err)
	}

	// Child lists share a slab but are capped: appending to one
	// leaves the next element's list alone.
	d, err := ParseCompact([]byte(`<r><a>1</a><b>2</b></r>`))
	if err != nil {
		t.Fatal(err)
	}
	d.Root.Children[0].AppendChild(NewElement("z"))
	if b := d.Root.Children[1]; len(b.Children) != 1 || b.Children[0].Kind != Text || b.Children[0].Value != "2" {
		t.Errorf("appending under <a> changed <b>: %s", d)
	}
}
