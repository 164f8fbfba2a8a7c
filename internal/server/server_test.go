package server

import (
	"maps"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/client"
	"repro/internal/dsi"
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

func boot(t *testing.T, schemeName string) (*client.Client, *Server) {
	t.Helper()
	doc, err := xmltree.ParseString(hospitalXML)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	cs, err := sc.ParseAll(paperSCs)
	if err != nil {
		t.Fatalf("scs: %v", err)
	}
	var sch *scheme.Scheme
	switch schemeName {
	case "opt":
		sch, err = scheme.Optimal(doc, cs)
	case "sub":
		sch, err = scheme.Sub(doc, cs)
	case "top":
		sch = scheme.Top(doc)
	}
	if err != nil {
		t.Fatalf("scheme: %v", err)
	}
	c, err := client.New([]byte("server-test"))
	if err != nil {
		t.Fatalf("client: %v", err)
	}
	db, err := c.Encrypt(doc, sch)
	if err != nil {
		t.Fatalf("encrypt: %v", err)
	}
	return c, New(db)
}

func runQuery(t *testing.T, c *client.Client, s *Server, q string) *wire.Answer {
	t.Helper()
	tq, err := c.Translate(xpath.MustParse(q))
	if err != nil {
		t.Fatalf("translate %s: %v", q, err)
	}
	ans, err := s.Execute(tq)
	if err != nil {
		t.Fatalf("execute %s: %v", q, err)
	}
	return ans
}

func TestServerStats(t *testing.T) {
	_, s := boot(t, "opt")
	if s.NumBlocks() == 0 {
		t.Errorf("no blocks hosted")
	}
	if s.IndexSize() == 0 {
		t.Errorf("empty value index")
	}
}

func TestExecuteEmptyQueryRejected(t *testing.T) {
	_, s := boot(t, "opt")
	if _, err := s.Execute(nil); err == nil {
		t.Errorf("nil query accepted")
	}
	if _, err := s.Execute(&wire.Query{}); err == nil {
		t.Errorf("empty query accepted")
	}
}

func TestPlaintextAnchorShipsFragment(t *testing.T) {
	c, s := boot(t, "opt")
	ans := runQuery(t, c, s, "//patient[age=35]")
	if len(ans.Fragments) != 1 {
		t.Fatalf("fragments = %d, want 1 (only Betty is 35)", len(ans.Fragments))
	}
	frag := string(ans.Fragments[0])
	if !strings.HasPrefix(frag, "<patient>") {
		t.Errorf("fragment root: %s", frag[:40])
	}
	// The fragment carries placeholders, not plaintext secrets.
	for _, secret := range []string{"Betty", "insurance", "diarrhea"} {
		if strings.Contains(frag, secret) {
			t.Errorf("fragment leaks %q", secret)
		}
	}
	// Referenced blocks ship alongside: pname-or-SSN + insurance +
	// disease of patient 1 = 3 blocks.
	if len(ans.Blocks) != 3 {
		t.Errorf("blocks shipped = %d, want 3", len(ans.Blocks))
	}
}

func TestEncryptedAnchorShipsBlockOnly(t *testing.T) {
	c, s := boot(t, "opt")
	ans := runQuery(t, c, s, "//disease")
	if len(ans.Fragments) != 0 {
		t.Errorf("encrypted anchors should ship no fragments, got %d", len(ans.Fragments))
	}
	if len(ans.Blocks) != 3 {
		t.Errorf("blocks = %d, want 3 disease blocks", len(ans.Blocks))
	}
}

func TestValuePredicatePrunesBlocks(t *testing.T) {
	c, s := boot(t, "opt")
	all := runQuery(t, c, s, "//patient")
	one := runQuery(t, c, s, "//patient[.//disease='leukemia']")
	if len(one.Blocks) >= len(all.Blocks) {
		t.Errorf("value predicate did not prune: %d vs %d blocks", len(one.Blocks), len(all.Blocks))
	}
	if len(one.Fragments) != 1 {
		t.Errorf("leukemia fragments = %d, want 1", len(one.Fragments))
	}
}

func TestNoMatchShipsNothing(t *testing.T) {
	c, s := boot(t, "opt")
	ans := runQuery(t, c, s, "//patient[age=99]")
	if len(ans.Fragments) != 0 || len(ans.Blocks) != 0 {
		t.Errorf("no-match query shipped %d fragments, %d blocks", len(ans.Fragments), len(ans.Blocks))
	}
}

func TestAnswerNeverLeaksKeys(t *testing.T) {
	c, s := boot(t, "opt")
	ans := runQuery(t, c, s, "//patient")
	for _, f := range ans.Fragments {
		for _, secret := range []string{"diarrhea", "leukemia", "34221", "1000000"} {
			if strings.Contains(string(f), secret) {
				t.Errorf("fragment leaks %q", secret)
			}
		}
	}
}

func TestTopSchemeAnswers(t *testing.T) {
	c, s := boot(t, "top")
	ans := runQuery(t, c, s, "//patient[pname='Betty']")
	if len(ans.Blocks) != 1 {
		t.Errorf("top scheme blocks = %d, want 1", len(ans.Blocks))
	}
	if len(ans.Fragments) != 0 {
		t.Errorf("top scheme fragments = %d, want 0", len(ans.Fragments))
	}
}

func TestLiftForSiblingPredicates(t *testing.T) {
	c, s := boot(t, "sub")
	// Under sub, treats are inside the patient block; the sibling
	// predicate must lift the anchor so the client can re-verify.
	ans := runQuery(t, c, s, "//treat[following-sibling::treat]/doctor")
	if len(ans.Blocks) == 0 {
		t.Fatalf("sibling query shipped nothing")
	}
}

func TestLiftDepthComputation(t *testing.T) {
	c, _ := boot(t, "opt")
	cases := []struct {
		q    string
		want int
	}{
		{"//patient/pname", 0},
		{"//patient[pname='Betty']", 0},
		{"//disease/..", 1},
		{"//disease/../..", 2},
		{"//treat[following-sibling::treat]", 1},
		{"//pname[following-sibling::SSN]", 1},
		{"//treat/disease[../doctor='Smith']", 0}, // dips back inside
	}
	for _, tc := range cases {
		tq, err := c.Translate(xpath.MustParse(tc.q))
		if err != nil {
			t.Fatalf("translate: %v", err)
		}
		if got := liftDepth(tq); got != tc.want {
			t.Errorf("liftDepth(%s) = %d, want %d", tc.q, got, tc.want)
		}
	}
}

func TestDedupeOutermost(t *testing.T) {
	c, s := boot(t, "opt")
	// //patient//* could select nested intervals; anchors must not
	// double-ship fragments.
	ans := runQuery(t, c, s, "//patient")
	ans2 := runQuery(t, c, s, "//patient[insurance]")
	if len(ans.Fragments) != 2 || len(ans2.Fragments) != 2 {
		t.Errorf("fragments = %d / %d, want 2 each", len(ans.Fragments), len(ans2.Fragments))
	}
}

// nanAgeDB returns the hospital database under opt, encoded, with the
// lower bound of one plaintext age interval set to NaN.
func nanAgeDB(t *testing.T) []byte {
	t.Helper()
	_, s := boot(t, "opt")
	db := *s.CurrentDB()
	db.Table = &dsi.Table{ByTag: maps.Clone(db.Table.ByTag)}
	ages := slices.Clone(db.Table.ByTag["age"])
	if len(ages) == 0 {
		t.Fatal("no plaintext age interval under opt")
	}
	ages[0].Lo = math.NaN()
	db.Table.ByTag["age"] = ages
	data, err := wire.MarshalDB(&db)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestDecodeRejectsNaNBound: a database with a NaN DSI bound used to
// decode, and //age on the server booted from it then panicked with an
// index of -1 (the interval was no table node). The decoder rejects
// every bound outside 0 <= Lo < Hi <= 1; the same bytes seed
// FuzzUnmarshalDB (testdata/fuzz/FuzzUnmarshalDB/nan-age-lo).
func TestDecodeRejectsNaNBound(t *testing.T) {
	if _, err := wire.UnmarshalDB(nanAgeDB(t)); err == nil || !strings.Contains(err.Error(), "invalid DSI interval") {
		t.Fatalf("decoding a NaN bound: error %v, want an invalid-interval error", err)
	}
}
