package server_test

import (
	"testing"

	"repro/internal/datagen"
	"repro/internal/difftest"
)

// fanOutQueries run the matcher's per-query loops over hundreds of
// items on a NASA document of 300 datasets: 300 main-path anchors
// whose survival is checked one by one (//dataset/title), 300
// candidates per predicate filter ([author], [.//last!='zzz'],
// [not(history)]), and steps whose answers number 395 (//dataset//last)
// and 2 795 (//dataset/*). //field/.. matches nothing and keeps the
// empty answer in the set.
var fanOutQueries = []string{
	"//dataset",
	"//dataset/title",
	"//dataset//last",
	"//author/last",
	"//dataset[date>=1990]//last",
	"//dataset[author]/title",
	"//dataset[.//last!='zzz']/title",
	"//dataset[not(history)]/title",
	"//field/..",
	"//dataset/*",
}

// TestLargeFanOutMatchesPlaintext runs every fanOutQueries entry
// through the full pipeline — translate, match, prove, verify,
// decrypt, post-process, under every scheme with integrity on, cold
// and then from the caches — and requires the answer to equal
// xpath.Evaluate on the plaintext document. The difftest corpus's
// documents are too small to give the matcher inputs this large.
func TestLargeFanOutMatchesPlaintext(t *testing.T) {
	c := &difftest.Case{
		Seed:    3,
		DocName: "nasa",
		Doc:     datagen.NASA(300, 3),
		SCs:     datagen.NASASCs(),
		Queries: fanOutQueries,
	}
	if err := difftest.RunCase(c); err != nil {
		t.Fatal(err)
	}
}
