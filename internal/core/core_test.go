package core

import (
	"reflect"
	"sort"
	"testing"

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
  <patient>
    <pname>Ann</pname>
    <SSN>555321</SSN>
    <insurance coverage="50000"><policy>77110</policy></insurance>
    <treat><disease>flu</disease><doctor>Smith</doctor></treat>
    <age>29</age>
  </patient>
</hospital>`

var paperSCs = []string{
	"//insurance",
	"//patient:(/pname, /SSN)",
	"//patient:(/pname, //disease)",
	"//treat:(/disease, /doctor)",
}

// queries covers the paper's query classes: root children (Qs),
// mid-level (Qm), leaves (Ql), the §6 running example, value ranges
// on encrypted and plaintext targets, and structural predicates.
var queries = []string{
	"/hospital/patient",
	"//patient",
	"//patient/pname",
	"//patient/SSN",
	"//treat",
	"//treat/disease",
	"//disease",
	"//doctor",
	"//insurance",
	"//insurance/policy",
	"//insurance/@coverage",
	"//patient/age",
	"//patient[pname='Betty']",
	"//patient[pname='Betty']/SSN",
	"//patient[.//disease='diarrhea']/pname",
	"//patient[.//disease='leukemia']",
	"//treat[disease='diarrhea']/doctor",
	"//patient[.//insurance//@coverage>=10000]//SSN",
	"//patient[.//insurance//@coverage>10000]//SSN",
	"//patient[age>30]/pname",
	"//patient[age>=29][age<=35]/pname",
	"//patient[age!=35]/pname",
	"//patient[pname='Betty' or pname='Ann']/age",
	"//patient[not(pname='Betty')]/pname",
	"//patient[insurance]/pname",
	"//patient[treat[disease='flu']]/pname",
	"//patient/*",
	"//patient//*",
	"//pname/text()",
	"//patient[2]/pname",
	"//treat[following-sibling::treat]/doctor",
	"//disease/..",
	"//nosuchtag",
	"//patient[pname='Nobody']",
	"//patient[age>100]",
	"//disease[.='leukemia']/ancestor::patient/pname",
	"//treat[ancestor::patient[age>36]]/doctor",
	"//policy/ancestor-or-self::insurance",
}

func plaintextResults(t *testing.T, doc *xmltree.Document, q string) []string {
	t.Helper()
	nodes := xpath.Evaluate(doc, xpath.MustParse(q))
	out := ResultStrings(nodes)
	sort.Strings(out)
	return out
}

func systemResults(t *testing.T, s *System, q string, naive bool) []string {
	t.Helper()
	var nodes []*xmltree.Node
	var err error
	if naive {
		nodes, _, _, err = s.NaiveQuery(q)
	} else {
		nodes, _, _, err = s.Query(q)
	}
	if err != nil {
		t.Fatalf("query %s: %v", q, err)
	}
	out := ResultStrings(nodes)
	sort.Strings(out)
	return out
}

func TestEndToEndEquivalenceAllSchemes(t *testing.T) {
	doc, err := xmltree.ParseString(hospitalXML)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	for _, name := range []SchemeName{SchemeOpt, SchemeApp, SchemeSub, SchemeTop, SchemeLeaf} {
		t.Run(string(name), func(t *testing.T) {
			sys, err := Host(doc, paperSCs, name, []byte("e2e-master"))
			if err != nil {
				t.Fatalf("Host(%s): %v", name, err)
			}
			for _, q := range queries {
				want := plaintextResults(t, doc, q)
				got := systemResults(t, sys, q, false)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("scheme %s query %s:\n got  %v\n want %v", name, q, got, want)
				}
			}
		})
	}
}

func TestNaiveMethodEquivalence(t *testing.T) {
	doc, _ := xmltree.ParseString(hospitalXML)
	sys, err := Host(doc, paperSCs, SchemeOpt, []byte("naive-master"))
	if err != nil {
		t.Fatalf("Host: %v", err)
	}
	for _, q := range queries {
		want := plaintextResults(t, doc, q)
		got := systemResults(t, sys, q, true)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("naive query %s:\n got  %v\n want %v", q, got, want)
		}
	}
}

func TestAnswerSizeOptSmallerThanNaive(t *testing.T) {
	doc, _ := xmltree.ParseString(hospitalXML)
	sys, err := Host(doc, paperSCs, SchemeOpt, []byte("size-master"))
	if err != nil {
		t.Fatalf("Host: %v", err)
	}
	_, _, smart, err := sys.Query("//patient[pname='Betty']/SSN")
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	_, _, naive, err := sys.NaiveQuery("//patient[pname='Betty']/SSN")
	if err != nil {
		t.Fatalf("NaiveQuery: %v", err)
	}
	if smart.AnswerBytes >= naive.AnswerBytes {
		t.Errorf("selective answer %d bytes >= naive %d bytes", smart.AnswerBytes, naive.AnswerBytes)
	}
	if smart.BlocksShipped >= naive.BlocksShipped {
		t.Errorf("selective shipped %d blocks >= naive %d", smart.BlocksShipped, naive.BlocksShipped)
	}
}

func TestTopSchemeShipsEverything(t *testing.T) {
	doc, _ := xmltree.ParseString(hospitalXML)
	sys, err := Host(doc, paperSCs, SchemeTop, []byte("top-master"))
	if err != nil {
		t.Fatalf("Host: %v", err)
	}
	_, _, tm, err := sys.Query("//patient[pname='Betty']/SSN")
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if tm.BlocksShipped != 1 {
		t.Errorf("top scheme shipped %d blocks, want the single whole-document block", tm.BlocksShipped)
	}
}

func TestHostRejectsUnknownScheme(t *testing.T) {
	doc, _ := xmltree.ParseString(hospitalXML)
	if _, err := Host(doc, paperSCs, SchemeName("bogus"), []byte("k")); err == nil {
		t.Errorf("unknown scheme accepted")
	}
}

func TestHostRejectsBadSC(t *testing.T) {
	doc, _ := xmltree.ParseString(hospitalXML)
	if _, err := Host(doc, []string{"//patient:(/pname"}, SchemeOpt, []byte("k")); err == nil {
		t.Errorf("malformed SC accepted")
	}
}

func TestTimingsPopulated(t *testing.T) {
	doc, _ := xmltree.ParseString(hospitalXML)
	sys, _ := Host(doc, paperSCs, SchemeOpt, []byte("tm-master"))
	_, _, tm, err := sys.Query("//patient[.//disease='diarrhea']/pname")
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if tm.AnswerBytes <= 0 {
		t.Errorf("AnswerBytes = %d", tm.AnswerBytes)
	}
	if tm.Total() <= 0 {
		t.Errorf("Total = %v", tm.Total())
	}
	if tm.Transmit <= 0 {
		t.Errorf("Transmit = %v", tm.Transmit)
	}
}

// TestNegatedPredicateEmptyAnswer pins the empty-answer semantics: a
// query the server proves unsatisfiable must yield zero nodes, even
// when the query would match the client's synthetic reassembly root
// (a negated predicate on the document root is exactly that shape).
func TestNegatedPredicateEmptyAnswer(t *testing.T) {
	doc, _ := xmltree.ParseString(hospitalXML)
	sys, err := Host(doc, paperSCs, SchemeOpt, []byte("neg-master"))
	if err != nil {
		t.Fatalf("Host: %v", err)
	}
	nodes, _, _, err := sys.Query("//hospital[not(patient)]")
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if len(nodes) != 0 {
		t.Errorf("got %d nodes for unsatisfiable query, want 0: %v",
			len(nodes), ResultStrings(nodes))
	}
}

func TestServerSeesNoPlaintextSecrets(t *testing.T) {
	doc, _ := xmltree.ParseString(hospitalXML)
	sys, _ := Host(doc, paperSCs, SchemeOpt, []byte("leak-master"))
	db := sys.HostedDB
	res := db.Residue.String()

	// The insurance subtrees (node-type SC) must always be hidden.
	secrets := []string{"insurance", "policy", "coverage", "34221", "9983", "26544", "77110", "1000000"}
	// Every tag the optimal cover chose to encrypt must be hidden,
	// along with its values.
	valuesByTag := map[string][]string{
		"pname":   {"Betty", "Matt", "Ann", "pname"},
		"SSN":     {"763895", "276543", "555321", "SSN"},
		"disease": {"diarrhea", "leukemia", "flu", "disease"},
		"doctor":  {"Smith", "Walker", "Brown", "doctor"},
	}
	for tag := range sys.Scheme.CoverTags {
		secrets = append(secrets, valuesByTag[tag]...)
	}
	for _, secret := range secrets {
		if contains(res, secret) {
			t.Errorf("residue leaks %q:\n%s", secret, res)
		}
	}
	// The DSI table must not contain encrypted tags in plaintext.
	encrypted := []string{"insurance", "policy", "@coverage"}
	for tag := range sys.Scheme.CoverTags {
		encrypted = append(encrypted, tag)
	}
	for _, tag := range encrypted {
		if len(db.Table.ByTag[tag]) != 0 {
			t.Errorf("DSI table leaks plaintext tag %q", tag)
		}
	}
	// Every association SC must have at least one endpoint hidden.
	for _, pair := range [][2]string{{"pname", "SSN"}, {"pname", "disease"}, {"disease", "doctor"}} {
		if !sys.Scheme.CoverTags[pair[0]] && !sys.Scheme.CoverTags[pair[1]] {
			t.Errorf("association (%s, %s) has no encrypted endpoint", pair[0], pair[1])
		}
	}
}

func contains(haystack, needle string) bool {
	return len(haystack) >= len(needle) && indexOf(haystack, needle) >= 0
}

func indexOf(h, n string) int {
	for i := 0; i+len(n) <= len(h); i++ {
		if h[i:i+len(n)] == n {
			return i
		}
	}
	return -1
}
