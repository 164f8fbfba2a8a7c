package wire

import (
	"errors"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/authtree"
	"repro/internal/dsi"
	"repro/internal/xmltree"
)

// scanIDs runs the scanner and collects what it yields.
func scanIDs(fragment []byte) (ids []int, tags []string, err error) {
	err = PlaceholderIDs(fragment, func(id, start, end int) {
		ids = append(ids, id)
		tags = append(tags, string(fragment[start:end]))
	})
	return ids, tags, err
}

// walkIDs is the tree-walk the scanner replaced, made strict: the ids
// of every <EncBlock> element in document order, and whether any of
// them is one the scanner must refuse (no decimal id, or content of
// its own — a placeholder is an empty element).
func walkIDs(root *xmltree.Node) (ids []int, malformed bool) {
	root.Walk(func(n *xmltree.Node) bool {
		if n.Kind != xmltree.Element || n.Tag != PlaceholderTag {
			return true
		}
		idStr, _ := n.Attr("id")
		id, err := strconv.Atoi(idStr)
		if err != nil || strings.Trim(idStr, "0123456789") != "" || len(n.Children) != len(n.Attributes()) {
			malformed = true
		}
		ids = append(ids, id)
		return true
	})
	return ids, malformed
}

var placeholderCases = []struct {
	name     string
	fragment string
	want     []int
	wantTags []string
	wantErr  bool
}{
	{name: "none", fragment: `<patient><age>35</age></patient>`},
	{name: "one", fragment: `<patient><EncBlock id="7"/><age>35</age></patient>`,
		want: []int{7}, wantTags: []string{`<EncBlock id="7"/>`}},
	{name: "attribute block and order", fragment: `<a><EncBlock id="12" attr="1"/><b><EncBlock id="3"/></b></a>`,
		want: []int{12, 3}, wantTags: []string{`<EncBlock id="12" attr="1"/>`, `<EncBlock id="3"/>`}},
	{name: "id is not first", fragment: `<a><EncBlock attr="1" id="4"/></a>`, want: []int{4}},
	{name: "an attribute value that ends in id=", fragment: `<a><EncBlock note="x id=" id="5"/></a>`, want: []int{5}},
	{name: "the fragment is the placeholder", fragment: `<EncBlock id="0"/>`, want: []int{0}},
	{name: "longer tag name", fragment: `<a><EncBlockList id="9"/><EncBlock id="1"/></a>`, want: []int{1}},
	{name: "escaped in text", fragment: `<a><note>&lt;EncBlock id="9"/&gt;</note></a>`},
	{name: "escaped in an attribute value", fragment: `<a note="&lt;EncBlock id=&quot;9&quot;/&gt;"><b/></a>`},

	{name: "no id", fragment: `<a><EncBlock attr="1"/></a>`, wantErr: true},
	{name: "no attributes", fragment: `<a><EncBlock/></a>`, wantErr: true},
	{name: "id not a number", fragment: `<a><EncBlock id="x"/></a>`, wantErr: true},
	{name: "id empty", fragment: `<a><EncBlock id=""/></a>`, wantErr: true},
	{name: "id signed", fragment: `<a><EncBlock id="-1"/></a>`, wantErr: true},
	{name: "id with a suffix", fragment: `<a><EncBlock id="5x"/></a>`, wantErr: true},
	{name: "id overflows", fragment: `<a><EncBlock id="99999999999999999999"/></a>`, wantErr: true},
	{name: "unterminated tag", fragment: `<a><EncBlock id="5"`, wantErr: true},
	{name: "unterminated at the name", fragment: `<a><EncBlock`, wantErr: true},
	{name: "unterminated value", fragment: `<a><EncBlock id="5/></a>`, wantErr: true},
	{name: "unquoted value", fragment: `<a><EncBlock id=5/></a>`, wantErr: true},
	{name: "not self-closing", fragment: `<a><EncBlock id="5"></EncBlock></a>`, wantErr: true},
	{name: "an error after a good one", fragment: `<a><EncBlock id="1"/><EncBlock id="y"/></a>`, want: []int{1}, wantErr: true},
}

func TestPlaceholderIDs(t *testing.T) {
	for _, c := range placeholderCases {
		ids, tags, err := scanIDs([]byte(c.fragment))
		if (err != nil) != c.wantErr {
			t.Errorf("%s: err = %v, want error %v", c.name, err, c.wantErr)
		}
		if !reflect.DeepEqual(ids, c.want) {
			t.Errorf("%s: ids = %v, want %v", c.name, ids, c.want)
		}
		if c.wantTags != nil && !reflect.DeepEqual(tags, c.wantTags) {
			t.Errorf("%s: tags = %q, want %q", c.name, tags, c.wantTags)
		}
		// Every case in the serializer's own form is also a case of
		// scanner == walk.
		if doc, perr := xmltree.ParseCompact([]byte(c.fragment)); perr == nil && doc.String() == c.fragment {
			wids, malformed := walkIDs(doc.Root)
			if malformed != (err != nil) || (err == nil && !reflect.DeepEqual(ids, wids)) {
				t.Errorf("%s: scanner (%v, %v) disagrees with the walk (%v, malformed %v)", c.name, ids, err, wids, malformed)
			}
		}
	}
}

// TestMalformedPlaceholderIsTampering: a committed fragment whose
// placeholder has no usable id used to pass the verifier (the id failed
// to scan and the element was skipped) and fail later, in the client's
// splice, as an untyped error. The verdict is the verifier's, and it
// is ErrTampered.
func TestMalformedPlaceholderIsTampering(t *testing.T) {
	for _, id := range []string{"x", "", "-0"} {
		db := sampleDB(t)
		patient, iv := residueNodeIv(t, db, "patient")
		for _, a := range patient.ElementChildren()[0].Attributes() {
			a.Value = id
		}
		st, err := BuildAuthState(db)
		if err != nil {
			t.Fatal(err)
		}
		frag, err := SerializeFragment(patient)
		if err != nil {
			t.Fatal(err)
		}
		ans := &Answer{Fragments: [][]byte{frag}}
		if ans.Proof, err = st.ProveAnswer(ans, []dsi.Interval{iv}); err != nil {
			t.Fatal(err)
		}
		if err := st.Verifier().VerifyAnswer(ans); !errors.Is(err, authtree.ErrTampered) {
			t.Errorf("id=%q: verdict %v, want ErrTampered", id, err)
		}
	}
}

// FuzzPlaceholderScan: the scanner never panics and never yields a
// range that is not a whole placeholder tag; on anything ParseCompact
// accepts, a scan that succeeds lists exactly the walk's ids; and on
// input in the serializer's own form — the only form a committed
// fragment has — scan and walk also agree on what is malformed.
func FuzzPlaceholderScan(f *testing.F) {
	for _, c := range placeholderCases {
		f.Add([]byte(c.fragment))
	}
	f.Add([]byte(`<a x="<EncBlock q=" id="5"/>`))
	f.Add([]byte(`<a x="<EncBlock id=" 7="/>"/>`))
	f.Add([]byte(`<0 ="<EncBlock =""id="0"/>`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var ids []int
		last := 0
		err := PlaceholderIDs(data, func(id, start, end int) {
			if start < last || end <= start || end > len(data) ||
				!strings.HasPrefix(string(data[start:end]), "<"+PlaceholderTag) || !strings.HasSuffix(string(data[start:end]), "/>") {
				t.Fatalf("yielded [%d,%d) after %d in %q", start, end, last, data)
			}
			if id < 0 {
				t.Fatalf("yielded id %d", id)
			}
			ids, last = append(ids, id), end
		})
		doc, perr := xmltree.ParseCompact(data)
		if perr != nil {
			return
		}
		// ParseCompact lets a raw '<' into a tag name, an attribute
		// name or an attribute value; XML allows none of them and the
		// serializer escapes it in values, so the scanner's reading of
		// '<' as "a tag starts here" is only claimed where none sits.
		sane := true
		doc.Root.Walk(func(n *xmltree.Node) bool {
			sane = sane && !strings.Contains(n.Tag, "<") &&
				(n.Kind != xmltree.Attribute || !strings.Contains(n.Value, "<"))
			return sane
		})
		if !sane {
			return
		}
		wids, malformed := walkIDs(doc.Root)
		if err == nil && (malformed || !reflect.DeepEqual(ids, wids)) {
			t.Fatalf("scan %v, walk %v (malformed %v) on %q", ids, wids, malformed, data)
		}
		if doc.String() == string(data) && (err != nil) != malformed {
			t.Fatalf("scan error %v, walk malformed %v on canonical %q", err, malformed, data)
		}
	})
}
