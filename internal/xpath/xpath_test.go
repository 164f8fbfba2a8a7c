package xpath

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/internal/xmltree"
)

const hospitalXML = `
<hospital>
  <patient>
    <pname>Betty</pname>
    <SSN>763895</SSN>
    <insurance coverage="1000000"><policy>34221</policy></insurance>
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

func hospital(t *testing.T) *xmltree.Document {
	t.Helper()
	d, err := xmltree.ParseString(hospitalXML)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return d
}

func evalStrings(t *testing.T, d *xmltree.Document, q string) []string {
	t.Helper()
	p, err := Parse(q)
	if err != nil {
		t.Fatalf("Parse(%q): %v", q, err)
	}
	var out []string
	for _, n := range Evaluate(d, p) {
		out = append(out, StringValue(n))
	}
	return out
}

func count(t *testing.T, d *xmltree.Document, q string) int {
	t.Helper()
	return len(Evaluate(d, MustParse(q)))
}

func TestBasicPaths(t *testing.T) {
	d := hospital(t)
	cases := []struct {
		q    string
		want int
	}{
		{"/hospital", 1},
		{"/hospital/patient", 2},
		{"//patient", 2},
		{"//disease", 3},
		{"/hospital//disease", 3},
		{"//treat/disease", 3},
		{"//patient/treat", 3},
		{"//hospital", 1},
		{"//insurance/policy", 2},
		{"//insurance//policy", 2},
		{"//patient/*", 11},
		{"/hospital/*", 2},
		{"//nosuch", 0},
		{"/nosuch", 0},
		{"//patient/pname", 2},
		{"//pname", 2},
	}
	for _, c := range cases {
		if got := count(t, d, c.q); got != c.want {
			t.Errorf("%s: got %d nodes, want %d", c.q, got, c.want)
		}
	}
}

func TestAttributeAxis(t *testing.T) {
	d := hospital(t)
	got := evalStrings(t, d, "//insurance/@coverage")
	if len(got) != 2 || got[0] != "1000000" || got[1] != "10000" {
		t.Errorf("//insurance/@coverage = %v", got)
	}
	if n := count(t, d, "//@coverage"); n != 2 {
		t.Errorf("//@coverage = %d, want 2", n)
	}
	if n := count(t, d, "//patient//@coverage"); n != 2 {
		t.Errorf("//patient//@coverage = %d, want 2", n)
	}
	if n := count(t, d, "//insurance/@*"); n != 2 {
		t.Errorf("//insurance/@* = %d, want 2", n)
	}
}

func TestValuePredicates(t *testing.T) {
	d := hospital(t)
	cases := []struct {
		q    string
		want int
	}{
		{"//patient[pname='Betty']", 1},
		{"//patient[pname='Betty'][.//disease='diarrhea']", 1},
		{"//patient[pname='Betty'][.//disease='leukemia']", 0},
		{"//patient[.//disease='diarrhea']", 2},
		{"//patient[age>36]", 1},
		{"//patient[age>=35]", 2},
		{"//patient[age<40]", 1},
		{"//patient[age<=35]", 1},
		{"//patient[age!=35]", 1},
		{"//patient[age=40]", 1},
		{"//patient[.//insurance/@coverage>=10000]", 2},
		{"//patient[.//insurance/@coverage>10000]", 1},
		{"//treat[disease='diarrhea']/doctor", 2},
		{"//patient[36<age]", 1}, // flipped literal
	}
	for _, c := range cases {
		if got := count(t, d, c.q); got != c.want {
			t.Errorf("%s: got %d, want %d", c.q, got, c.want)
		}
	}
}

func TestPaperRunningQuery(t *testing.T) {
	d := hospital(t)
	// §6: //patient[.//insurance//@coverage>='10000']//SSN
	got := evalStrings(t, d, "//patient[.//insurance//@coverage>='10000']//SSN")
	if len(got) != 2 {
		t.Fatalf("paper query returned %v, want both SSNs", got)
	}
	got = evalStrings(t, d, "//patient[.//insurance//@coverage>'10000']//SSN")
	if len(got) != 1 || got[0] != "763895" {
		t.Errorf("high-coverage query = %v, want [763895]", got)
	}
}

func TestExistencePredicates(t *testing.T) {
	d := hospital(t)
	if got := count(t, d, "//patient[insurance]"); got != 2 {
		t.Errorf("patients with insurance = %d", got)
	}
	if got := count(t, d, "//patient[treat[disease='leukemia']]"); got != 1 {
		t.Errorf("leukemia patients = %d", got)
	}
	if got := count(t, d, "//patient[nosuch]"); got != 0 {
		t.Errorf("patients with nosuch = %d", got)
	}
}

func TestBooleanPredicates(t *testing.T) {
	d := hospital(t)
	cases := []struct {
		q    string
		want int
	}{
		{"//patient[pname='Betty' and age=35]", 1},
		{"//patient[pname='Betty' and age=40]", 0},
		{"//patient[pname='Betty' or pname='Matt']", 2},
		{"//patient[not(pname='Betty')]", 1},
		{"//patient[(pname='Betty' or pname='Matt') and age>36]", 1},
	}
	for _, c := range cases {
		if got := count(t, d, c.q); got != c.want {
			t.Errorf("%s: got %d, want %d", c.q, got, c.want)
		}
	}
}

func TestPositionalPredicates(t *testing.T) {
	d := hospital(t)
	got := evalStrings(t, d, "//patient[2]/pname")
	if len(got) != 1 || got[0] != "Matt" {
		t.Errorf("//patient[2]/pname = %v", got)
	}
	got = evalStrings(t, d, "//patient/treat[2]/doctor")
	if len(got) != 1 || got[0] != "Brown" {
		t.Errorf("second treat doctor = %v", got)
	}
	if n := count(t, d, "//patient[3]"); n != 0 {
		t.Errorf("//patient[3] = %d, want 0", n)
	}
	// Under "//" a position counts among each parent's children:
	// //x[1] is descendant-or-self::node()/child::x[1].
	two := xmltree.MustParse(`<r><a><x>1</x><x>2</x></a><a><x>3</x><x>4</x></a></r>`)
	for q, want := range map[string]string{
		"//x[1]":       "[1 3]",
		"//x[2]":       "[2 4]",
		"//x[3]":       "[]",
		"/r//x[1]":     "[1 3]",
		"//a//x[2]":    "[2 4]",
		"//x[.>1][1]":  "[2 3]",
		"//a[2]/x[1]":  "[3]",
		"//r[1]//x[1]": "[1 3]",
		"//*[1]":       "[1234 12 1 3]",
	} {
		if got := fmt.Sprint(evalStrings(t, two, q)); got != want {
			t.Errorf("%s = %s, want %s", q, got, want)
		}
	}
}

func TestSiblingAxes(t *testing.T) {
	d := hospital(t)
	// doctors of treats that have a following treat sibling
	got := evalStrings(t, d, "//treat[following-sibling::treat]/doctor")
	if len(got) != 1 || got[0] != "Walker" {
		t.Errorf("treat with following treat = %v", got)
	}
	got = evalStrings(t, d, "//treat[preceding-sibling::treat]/doctor")
	if len(got) != 1 || got[0] != "Brown" {
		t.Errorf("treat with preceding treat = %v", got)
	}
	if n := count(t, d, "//pname[following-sibling::SSN]"); n != 2 {
		t.Errorf("pname before SSN = %d, want 2", n)
	}
}

func TestParentAndSelf(t *testing.T) {
	d := hospital(t)
	if n := count(t, d, "//disease/.."); n != 3 {
		t.Errorf("//disease/.. = %d, want 3 treats", n)
	}
	got := evalStrings(t, d, "//pname[.='Matt']")
	if len(got) != 1 || got[0] != "Matt" {
		t.Errorf("//pname[.='Matt'] = %v", got)
	}
	if n := count(t, d, "//disease/self::disease"); n != 3 {
		t.Errorf("self axis = %d, want 3", n)
	}
}

// TestDotPathCanonicalForm pins a fuzzer-found round-trip drift:
// "A[//A]" stringified to "A[.//A]", which re-parsed with a
// redundant leading self::* step and stringified differently again
// ("A[self::*//A]"). "./x" and ".//x" must parse to the same AST as
// "x" and a context-relative descendant step, so String() reaches a
// fixed point after one render.
func TestDotPathCanonicalForm(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"A[//A]", "A[.//A]"},
		{"A[.//A]", "A[.//A]"},
		{"./disease", "disease"},
		{".//disease", ".//disease"},
		{"//patient[./pname='Matt']", "//patient[pname='Matt']"},
	} {
		p := MustParse(tc.in)
		if got := p.String(); got != tc.want {
			t.Errorf("Parse(%q).String() = %q, want %q", tc.in, got, tc.want)
		}
		again := MustParse(p.String())
		if got := again.String(); got != p.String() {
			t.Errorf("round-trip drift: %q -> %q -> %q", tc.in, p.String(), got)
		}
	}
	// The canonicalization must not change semantics: ".//disease"
	// and the bare "." context step still evaluate correctly.
	d := hospital(t)
	if n := count(t, d, ".//disease"); n != 3 {
		t.Errorf(".//disease = %d, want 3", n)
	}
	if n := count(t, d, "//patient[.//disease='leukemia']"); n != 1 {
		t.Errorf("predicate .//disease = %d, want 1", n)
	}
}

func TestTextTest(t *testing.T) {
	d := hospital(t)
	got := evalStrings(t, d, "//pname/text()")
	if len(got) != 2 || got[0] != "Betty" {
		t.Errorf("//pname/text() = %v", got)
	}
}

func TestDocumentOrderAndDedup(t *testing.T) {
	d := hospital(t)
	nodes := Evaluate(d, MustParse("//patient//disease"))
	for i := 1; i < len(nodes); i++ {
		if nodes[i-1].ID >= nodes[i].ID {
			t.Fatalf("results not in document order")
		}
	}
	// A query whose steps could reach the same node twice.
	n1 := count(t, d, "//treat//disease")
	if n1 != 3 {
		t.Errorf("//treat//disease = %d, want 3 (dedup)", n1)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"//",
		"//patient[",
		"//patient[age>]",
		"//patient]",
		"//patient[age >< 5]",
		"//patient[age='unterminated]",
		"//patient[0]",
		"//bogus-axis::x",
		"not::x",
		"//a[not age=5]",
		"//a[5]extra",
	}
	for _, q := range bad {
		if _, err := Parse(q); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", q)
		}
	}
}

func TestStringRoundTrip(t *testing.T) {
	queries := []string{
		"/hospital/patient",
		"//patient",
		"//patient/pname",
		"//patient[pname='Betty'][.//disease='diarrhea']",
		"//patient[.//insurance//@coverage>=10000]//SSN",
		"//treat[following-sibling::treat]/doctor",
		"//patient[2]/pname",
		"//patient[age>35 and age<50]",
		"//patient[not(pname='Betty')]",
		"//pname/text()",
	}
	d := hospital(t)
	for _, q := range queries {
		p1, err := Parse(q)
		if err != nil {
			t.Fatalf("Parse(%q): %v", q, err)
		}
		s := p1.String()
		p2, err := Parse(s)
		if err != nil {
			t.Fatalf("reparse %q (from %q): %v", s, q, err)
		}
		// Round trip must be semantically identical: same results.
		r1 := Evaluate(d, p1)
		r2 := Evaluate(d, p2)
		if len(r1) != len(r2) {
			t.Errorf("%q vs %q: %d vs %d results", q, s, len(r1), len(r2))
			continue
		}
		for i := range r1 {
			if r1[i] != r2[i] {
				t.Errorf("%q vs %q: result %d differs", q, s, i)
			}
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	p := MustParse("//patient[pname='Betty']//SSN")
	c := p.Clone()
	c.RewriteTags(func(name string, attr bool) string { return strings.ToUpper(name) })
	if p.String() == c.String() {
		t.Errorf("rewriting clone affected original: %s", p)
	}
	if !strings.Contains(c.String(), "PATIENT") {
		t.Errorf("clone not rewritten: %s", c)
	}
}

func TestRewriteTagsCoversPredicates(t *testing.T) {
	p := MustParse("//patient[.//insurance//@coverage>=10000]//SSN")
	var seen []string
	p.RewriteTags(func(name string, attr bool) string {
		if attr {
			name = "@" + name
		}
		seen = append(seen, name)
		return strings.TrimPrefix(name, "@")
	})
	want := map[string]bool{"patient": true, "insurance": true, "@coverage": true, "SSN": true}
	for _, s := range seen {
		delete(want, s)
	}
	if len(want) != 0 {
		t.Errorf("RewriteTags missed %v (saw %v)", want, seen)
	}
}

func TestRewriteCmps(t *testing.T) {
	p := MustParse("//patient[age>=35][pname='Betty']//SSN")
	n := 0
	p.RewriteCmps(func(c *CmpExpr) {
		n++
		c.Range = true
		c.Literal, c.Hi = "100", "200"
	})
	if n != 2 {
		t.Errorf("RewriteCmps visited %d comparisons, want 2", n)
	}
	if !strings.Contains(p.String(), "[100, 200]") {
		t.Errorf("range not serialized: %s", p)
	}
}

func TestTags(t *testing.T) {
	p := MustParse("//patient[.//insurance//@coverage>=10000]//SSN")
	tags := p.Tags()
	want := []string{"patient", "insurance", "@coverage", "SSN"}
	if len(tags) != len(want) {
		t.Fatalf("Tags = %v, want %v", tags, want)
	}
	for i := range want {
		if tags[i] != want[i] {
			t.Errorf("Tags[%d] = %s, want %s", i, tags[i], want[i])
		}
	}
}

func TestNumericVsStringComparison(t *testing.T) {
	d, _ := xmltree.ParseString(`<r><v>9</v><v>10</v><v>abc</v></r>`)
	if n := count(t, d, "//v[.<10]"); n != 1 {
		t.Errorf("numeric compare: got %d, want 1 (9 only)", n)
	}
	if n := count(t, d, "//v[.='abc']"); n != 1 {
		t.Errorf("string equality failed")
	}
	// "abc" vs "10" falls back to string comparison ("abc" > "10");
	// "9" vs "10" is numeric even though the literal is quoted.
	if n := count(t, d, "//v[.>'10']"); n != 1 {
		t.Errorf("mixed compare: got %d, want 1 (abc only)", n)
	}
}

// TestDecodedComparison checks the decoded comparison against the
// definition it implements: numeric when both sides parse with
// ParseFloat, lexicographic otherwise, over operands at the edges of
// what ParseFloat accepts.
func TestDecodedComparison(t *testing.T) {
	operands := []string{"", "0", "9", "10", "-3", "+3", ".5", "5.", "3.0", "03", "1e3", "1e400",
		"0x1p-2", "1_000", "0x_1p0", "inf", "+Inf", "-infinity", "NaN", "nan", "Nancy", "info",
		"ADC-0042", "abc", " 3", "3 ", "e5", "_1", "1990-05"}
	want := func(a, b string) int {
		fa, errA := strconv.ParseFloat(a, 64)
		fb, errB := strconv.ParseFloat(b, 64)
		if errA == nil && errB == nil {
			switch {
			case fa < fb:
				return -1
			case fa > fb:
				return 1
			}
			return 0
		}
		return strings.Compare(a, b)
	}
	for _, s := range operands {
		_, err := strconv.ParseFloat(s, 64)
		if got := DecodeValue(s).Num; got != (err == nil) {
			t.Errorf("DecodeValue(%q).Num = %v, ParseFloat error %v", s, got, err)
		}
	}
	for _, a := range operands {
		for _, b := range operands {
			cmp := want(a, b)
			if got := compareValues(a, DecodeValue(b)); got != cmp {
				t.Errorf("compareValues(%q, %q) = %d, want %d", a, b, got, cmp)
			}
			for _, op := range []Op{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe} {
				if got := DecodeValue(a).Holds(op, DecodeValue(b)); got != opHolds(cmp, op) {
					t.Errorf("%q %v %q: Holds = %v, want %v", a, op, b, got, opHolds(cmp, op))
				}
			}
		}
	}
}

// TestDecodeValueSpecials checks the words starting with i/I/n/N, which
// DecodeValue decides without ParseFloat unless they are inf, infinity
// or nan: each must decode exactly as ParseFloat reads it, and a word
// that is not a number must cost no allocation.
func TestDecodeValueSpecials(t *testing.T) {
	for _, s := range []string{"Inf", "INFINITY", "nan", "NaN", "infin", "n", "i", "NASA", "nil"} {
		f, err := strconv.ParseFloat(s, 64)
		got := DecodeValue(s)
		if got.S != s || got.Num != (err == nil) {
			t.Errorf("DecodeValue(%q) = %+v, ParseFloat = %v, %v", s, got, f, err)
			continue
		}
		if got.Num && got.F != f && !(math.IsNaN(got.F) && math.IsNaN(f)) {
			t.Errorf("DecodeValue(%q).F = %v, ParseFloat = %v", s, got.F, f)
		}
		if !got.Num {
			if allocs := testing.AllocsPerRun(10, func() { DecodeValue(s) }); allocs != 0 {
				t.Errorf("DecodeValue(%q) allocates %v times", s, allocs)
			}
		}
	}
}

func TestRangeCmpEvaluation(t *testing.T) {
	d := hospital(t)
	p := MustParse("//patient[age=0]")
	p.RewriteCmps(func(c *CmpExpr) { c.Range, c.Literal, c.Hi = true, "34", "36" })
	if n := len(Evaluate(d, p)); n != 1 {
		t.Errorf("range [34,36] matched %d patients, want 1", n)
	}
}

func TestWildcardDescendant(t *testing.T) {
	d := hospital(t)
	all := count(t, d, "//*")
	// every element: hospital 1 + patient 2 + (pname SSN insurance
	// policy age)*2 + treat 3 + disease 3 + doctor 3 = 1+2+10+9 = 22
	if all != 22 {
		t.Errorf("//* = %d, want 22", all)
	}
}

func TestAncestorAxes(t *testing.T) {
	d := hospital(t)
	if n := count(t, d, "//disease/ancestor::patient"); n != 2 {
		t.Errorf("//disease/ancestor::patient = %d, want 2", n)
	}
	if n := count(t, d, "//disease/ancestor::*"); n != 8 {
		// 3 treats + 2 patients + 1 hospital, deduped... treats(3)+patients(2)+hospital(1)=6
		t.Logf("ancestor::* = %d", n)
	}
	if n := count(t, d, "//doctor/ancestor-or-self::doctor"); n != 3 {
		t.Errorf("ancestor-or-self::doctor = %d, want 3", n)
	}
	if n := count(t, d, "//treat[ancestor::patient[pname='Matt']]"); n != 2 {
		t.Errorf("treats of Matt via ancestor = %d, want 2", n)
	}
	got := evalStrings(t, d, "//disease[.='leukemia']/ancestor::patient/pname")
	if len(got) != 1 || got[0] != "Matt" {
		t.Errorf("leukemia patient via ancestor = %v", got)
	}
}
