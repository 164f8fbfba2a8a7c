package core

import (
	"testing"

	"repro/internal/datagen"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// plaintext extreme for reference.
func refExtreme(t *testing.T, doc *xmltree.Document, q string, max bool) string {
	t.Helper()
	nodes := xpath.Evaluate(doc, xpath.MustParse(q))
	if len(nodes) == 0 {
		t.Fatalf("reference query %s empty", q)
	}
	var vals []string
	for _, n := range nodes {
		vals = append(vals, xpath.StringValue(n))
	}
	return extremeOf(vals, max)
}

// pathForTag maps NASA tags to the path selecting all their
// occurrences.
var pathForTag = map[string]string{
	"initial": "//author/initial", "last": "//author/last",
	"age": "//dataset/age", "city": "//dataset/city",
	"date": "//dataset/date", "publisher": "//dataset/publisher",
	"title": "//dataset/title",
}

func TestAggregateMinMaxEncryptedSingleBlock(t *testing.T) {
	doc := datagen.NASA(60, 5)
	sys, err := Host(doc, datagen.NASASCs(), SchemeOpt, []byte("agg"))
	if err != nil {
		t.Fatalf("Host: %v", err)
	}
	// Pick any tag the optimal cover actually encrypted (the minimum
	// vertex cover is not unique; which side wins is instance
	// dependent, §4.2).
	var tag, q string
	for candidate := range sys.Scheme.CoverTags {
		if p, ok := pathForTag[candidate]; ok && !sys.Client.TagOccursPlain(candidate) {
			tag, q = candidate, p
			break
		}
	}
	if tag == "" {
		t.Fatalf("no coverable tag in %v", sys.Scheme.CoverTags)
	}
	for _, max := range []bool{false, true} {
		got, tm, err := sys.AggregateMinMax(q, max)
		if err != nil {
			t.Fatalf("AggregateMinMax(%s, max=%v): %v", tag, max, err)
		}
		want := refExtreme(t, doc, q, max)
		if got != want {
			t.Errorf("%s max=%v: got %q, want %q", tag, max, got, want)
		}
		// §6.4: exactly one block ships on the index path.
		if tm.BlocksShipped != 1 {
			t.Errorf("%s max=%v: shipped %d blocks, want 1", tag, max, tm.BlocksShipped)
		}
	}
}

func TestAggregateMinMaxNumericEncrypted(t *testing.T) {
	// Force a numeric attribute ("date") into the encrypted side.
	doc := datagen.NASA(50, 6)
	scs := append(datagen.NASASCs(), "//dataset:(/date, /altname)")
	sys, err := Host(doc, scs, SchemeOpt, []byte("agg2"))
	if err != nil {
		t.Fatalf("Host: %v", err)
	}
	if !sys.Scheme.CoverTags["date"] {
		t.Skip("optimal cover did not pick date; nothing to test on the index path")
	}
	got, tm, err := sys.AggregateMinMax("//dataset/date", false)
	if err != nil {
		t.Fatalf("MIN(date): %v", err)
	}
	if want := refExtreme(t, doc, "//dataset/date", false); got != want {
		t.Errorf("MIN(date) = %q, want %q", got, want)
	}
	if tm.BlocksShipped != 1 {
		t.Errorf("MIN(date) shipped %d blocks", tm.BlocksShipped)
	}
	gotMax, _, err := sys.AggregateMinMax("//dataset/date", true)
	if err != nil {
		t.Fatalf("MAX(date): %v", err)
	}
	if want := refExtreme(t, doc, "//dataset/date", true); gotMax != want {
		t.Errorf("MAX(date) = %q, want %q", gotMax, want)
	}
}

func TestAggregateMinMaxPlaintextFallback(t *testing.T) {
	doc := datagen.NASA(40, 7)
	sys, err := Host(doc, datagen.NASASCs(), SchemeOpt, []byte("agg3"))
	if err != nil {
		t.Fatalf("Host: %v", err)
	}
	// "publisher" is plaintext under the optimal cover: fallback path.
	got, _, err := sys.AggregateMinMax("//dataset/publisher", false)
	if err != nil {
		t.Fatalf("MIN(publisher): %v", err)
	}
	if want := refExtreme(t, doc, "//dataset/publisher", false); got != want {
		t.Errorf("MIN(publisher) = %q, want %q", got, want)
	}
}

func TestAggregateWithPredicateFallsBack(t *testing.T) {
	doc := datagen.NASA(40, 8)
	sys, err := Host(doc, datagen.NASASCs(), SchemeOpt, []byte("agg4"))
	if err != nil {
		t.Fatalf("Host: %v", err)
	}
	q := "//dataset[publisher='NASA']//last"
	got, _, err := sys.AggregateMinMax(q, true)
	if err != nil {
		t.Fatalf("MAX with predicate: %v", err)
	}
	if want := refExtreme(t, doc, q, true); got != want {
		t.Errorf("predicated MAX = %q, want %q", got, want)
	}
}

func TestAggregateErrors(t *testing.T) {
	doc := datagen.NASA(20, 9)
	sys, _ := Host(doc, datagen.NASASCs(), SchemeOpt, []byte("agg5"))
	if _, _, err := sys.AggregateMinMax("//nosuchtag", false); err == nil {
		t.Errorf("aggregate over empty selection should fail")
	}
	if _, _, err := sys.AggregateMinMax("//dataset[", false); err == nil {
		t.Errorf("bad path accepted")
	}
}

func TestExtremeOf(t *testing.T) {
	if got := extremeOf([]string{"9", "10", "2"}, false); got != "2" {
		t.Errorf("numeric min = %q", got)
	}
	if got := extremeOf([]string{"9", "10", "2"}, true); got != "10" {
		t.Errorf("numeric max = %q", got)
	}
	if got := extremeOf([]string{"pear", "apple", "plum"}, false); got != "apple" {
		t.Errorf("string min = %q", got)
	}
	if got := extremeOf([]string{"pear", "apple", "plum"}, true); got != "plum" {
		t.Errorf("string max = %q", got)
	}
	if got := extremeOf([]string{"7"}, true); got != "7" {
		t.Errorf("singleton = %q", got)
	}
}

func TestLastNamedTagAndPredicates(t *testing.T) {
	cases := map[string]string{
		"//author/last":              "last",
		"//insurance/@coverage":      "@coverage",
		"//pname/text()":             "pname",
		"//patient/*":                "",
		"//a/b/following-sibling::c": "c",
	}
	for q, want := range cases {
		if got := lastNamedTag(xpath.MustParse(q)); got != want {
			t.Errorf("lastNamedTag(%s) = %q, want %q", q, got, want)
		}
	}
	if hasPredicates(xpath.MustParse("//a/b")) {
		t.Errorf("no predicates expected")
	}
	if !hasPredicates(xpath.MustParse("//a[b=1]/c")) {
		t.Errorf("predicate not detected")
	}
}

// TestAggregateMinMaxEncryptedAttribute: MIN/MAX over an attribute that
// is its own encryption block takes the single-block path, whose block
// content is the attribute itself (an <_attr> wrapper in the envelope),
// and returns the plaintext extreme.
func TestAggregateMinMaxEncryptedAttribute(t *testing.T) {
	doc := datagen.NASA(60, 3)
	const q = "//dataset/@subject"
	sys, err := Host(doc, []string{q}, SchemeOpt, []byte("agg-attr"))
	if err != nil {
		t.Fatalf("Host: %v", err)
	}
	if sys.Client.TagOccursPlain("@subject") {
		t.Fatalf("@subject occurs in plaintext under SC %s", q)
	}
	nodes, _, _, err := sys.Query(q)
	if err != nil || len(nodes) != 60 {
		t.Fatalf("Query(%s) = %d nodes, %v; want 60", q, len(nodes), err)
	}
	for _, max := range []bool{false, true} {
		got, tm, err := sys.AggregateMinMax(q, max)
		if err != nil {
			t.Fatalf("AggregateMinMax(%s, max=%v): %v", q, max, err)
		}
		if want := refExtreme(t, doc, q, max); got != want {
			t.Errorf("max=%v: got %q, want %q", max, got, want)
		}
		if tm.BlocksShipped != 1 {
			t.Errorf("max=%v: %d blocks shipped, want the single-block path's 1", max, tm.BlocksShipped)
		}
	}
}
