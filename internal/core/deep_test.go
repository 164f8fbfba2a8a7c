package core

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/xmltree"
)

// chainDoc is <a><k>1</k><a><k>2</k>…</a></a>: depth nested a
// elements, each with one k sibling beside the next a. Every level
// halves what Figure 3 leaves a child twice over, so float64 DSI
// bounds run out a little past depth 30.
func chainDoc(t *testing.T, depth int) *xmltree.Document {
	t.Helper()
	var b strings.Builder
	for i := 1; i <= depth; i++ {
		b.WriteString("<a><k>" + strconv.Itoa(i) + "</k>")
	}
	b.WriteString(strings.Repeat("</a>", depth))
	doc, err := xmltree.ParseString(b.String())
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// TestDeepChainFailsToHost: a document too deep for float64 DSI
// bounds is refused when it is hosted, with an error naming the depth,
// instead of being hosted with intervals that collapse onto their
// parents (which lost nodes from //k and panicked sibling joins). The
// budget runs out near depth 30, where the keyed gap weights decide:
// there a chain hosts and answers in full, or is refused; a 25-deep
// chain always hosts.
func TestDeepChainFailsToHost(t *testing.T) {
	scs := []string{"//k"}
	for _, name := range []SchemeName{SchemeOpt, SchemeLeaf} {
		for _, key := range []string{"deep-chain", "deep-chain-2", "deep-chain-3"} {
			_, err := Host(chainDoc(t, 35), scs, name, []byte(key))
			if err == nil || !strings.Contains(err.Error(), "depth") {
				t.Fatalf("%s, %s: hosting a 35-deep chain: error %v, want one naming the depth", name, key, err)
			}
			for _, depth := range []int{25, 30} {
				sys, err := Host(chainDoc(t, depth), scs, name, []byte(key))
				if depth == 30 && err != nil && strings.Contains(err.Error(), "depth") {
					continue
				}
				if err != nil {
					t.Fatalf("%s, %s: hosting a %d-deep chain: %v", name, key, depth, err)
				}
				checkChainAnswer(t, sys, depth)
			}
		}
	}
}

func checkChainAnswer(t *testing.T, sys *System, depth int) {
	t.Helper()
	nodes, _, _, err := sys.Query("//k")
	if err != nil {
		t.Fatalf("%d-deep chain: //k: %v", depth, err)
	}
	if len(nodes) != depth {
		t.Fatalf("%d-deep chain: //k returned %d values", depth, len(nodes))
	}
	for i, n := range nodes {
		if got, want := n.LeafValue(), strconv.Itoa(i+1); got != want {
			t.Fatalf("%d-deep chain: //k value %d is %q, want %q", depth, i, got, want)
		}
	}
}
