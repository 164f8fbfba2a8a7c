package difftest

import (
	"context"
	"reflect"
	"strconv"
	"testing"

	"repro/internal/wire"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// TestPlaceholderScanMatchesTreeWalk holds wire.PlaceholderIDs — what
// the server, the verifier and the client's assembly read fragments with
// — to the parse it replaced: for every fragment of every answer the
// corpus produces, under every scheme, the scanner's id list is the
// list a ParseCompact + Walk over the same bytes finds, and each
// yielded byte range is that placeholder's whole tag.
func TestPlaceholderScanMatchesTreeWalk(t *testing.T) {
	seeds := CorpusSeeds
	if testing.Short() {
		seeds = seeds[:4]
	}
	fragments, placeholders := 0, 0
	for _, seed := range seeds {
		c := GenCase(seed)
		for _, name := range Schemes {
			sys, err := hostScheme(c, name, c.Doc)
			if err != nil {
				t.Fatal(err)
			}
			for _, q := range c.Queries {
				path, err := xpath.Parse(q)
				if err != nil {
					t.Fatalf("seed %d: query %q: %v", seed, q, err)
				}
				qs, err := sys.Client.Translate(path)
				if err != nil {
					t.Fatalf("seed %d: scheme %s query %q: translate: %v", seed, name, q, err)
				}
				ans, _, err := sys.Server.Execute(context.Background(), qs)
				if err != nil {
					t.Fatalf("seed %d: scheme %s query %q: %v", seed, name, q, err)
				}
				for _, frag := range ans.Fragments {
					var got []int
					err := wire.PlaceholderIDs(frag, func(id, start, end int) {
						got = append(got, id)
						if tag := string(frag[start:end]); tag != `<EncBlock id="`+strconv.Itoa(id)+`"/>` &&
							tag != `<EncBlock id="`+strconv.Itoa(id)+`" attr="1"/>` {
							t.Errorf("seed %d: scheme %s query %q: range [%d,%d) is %q", seed, name, q, start, end, tag)
						}
					})
					if err != nil {
						t.Fatalf("seed %d: scheme %s query %q: scan: %v\n%s", seed, name, q, err, frag)
					}
					doc, err := xmltree.ParseCompact(frag)
					if err != nil {
						t.Fatalf("seed %d: scheme %s query %q: parse: %v", seed, name, q, err)
					}
					var want []int
					doc.Root.Walk(func(n *xmltree.Node) bool {
						if n.Kind == xmltree.Element && n.Tag == wire.PlaceholderTag {
							idStr, _ := n.Attr("id")
							id, err := strconv.Atoi(idStr)
							if err != nil {
								t.Fatalf("seed %d: scheme %s: placeholder id %q", seed, name, idStr)
							}
							want = append(want, id)
						}
						return true
					})
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("seed %d: scheme %s query %q: scan %v, walk %v\n%s", seed, name, q, got, want, frag)
					}
					fragments++
					placeholders += len(got)
				}
			}
		}
	}
	if fragments == 0 || placeholders == 0 {
		t.Fatalf("compared %d fragments holding %d placeholders; the corpus exercised nothing", fragments, placeholders)
	}
	t.Logf("%d fragments, %d placeholders", fragments, placeholders)
}
