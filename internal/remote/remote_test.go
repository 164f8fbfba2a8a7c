package remote

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/wire"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

const hospitalXML = `
<hospital>
  <patient>
    <pname>Betty</pname><SSN>763895</SSN>
    <insurance coverage="1000000"><policy>34221</policy></insurance>
    <treat><disease>diarrhea</disease><doctor>Smith</doctor></treat>
    <age>35</age>
  </patient>
  <patient>
    <pname>Matt</pname><SSN>276543</SSN>
    <insurance coverage="10000"><policy>26544</policy></insurance>
    <treat><disease>leukemia</disease><doctor>Walker</doctor></treat>
    <age>40</age>
  </patient>
</hospital>`

var scs = []string{
	"//insurance",
	"//patient:(/pname, /SSN)",
	"//patient:(/pname, //disease)",
	"//treat:(/disease, /doctor)",
}

// remoteSystem hosts the hospital DB, uploads it to an httptest
// service, and points the owner's system at the remote backend.
func remoteSystem(t *testing.T) (*core.System, *httptest.Server) {
	t.Helper()
	sys, _, ts := remoteSystemClient(t)
	return sys, ts
}

// remoteSystemClient is remoteSystem that also hands back the client.
func remoteSystemClient(t *testing.T) (*core.System, *Client, *httptest.Server) {
	t.Helper()
	doc, err := xmltree.ParseString(hospitalXML)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	sys, err := core.Host(doc, scs, core.SchemeOpt, []byte("remote-test"))
	if err != nil {
		t.Fatalf("Host: %v", err)
	}
	ts := httptest.NewServer(NewService())
	t.Cleanup(ts.Close)
	cl := Dial(ts.URL, "hospital").WithHTTPClient(ts.Client())
	if err := cl.Upload(context.Background(), sys.HostedDB); err != nil {
		t.Fatalf("Upload: %v", err)
	}
	sys.UseBackend(cl)
	return sys, cl, ts
}

func TestRemoteQueryEquivalence(t *testing.T) {
	sys, _ := remoteSystem(t)
	doc, _ := xmltree.ParseString(hospitalXML)
	for _, q := range []string{
		"//patient/pname",
		"//patient[.//disease='diarrhea']/SSN",
		"//patient[age>36]",
		"//treat[disease='leukemia']/doctor",
		"//insurance/@coverage",
		"//nosuch",
	} {
		nodes, _, _, err := sys.Query(q)
		if err != nil {
			t.Fatalf("remote query %s: %v", q, err)
		}
		got := core.ResultStrings(nodes)
		want := core.ResultStrings(xpath.Evaluate(doc, xpath.MustParse(q)))
		sort.Strings(got)
		sort.Strings(want)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("remote %s:\n got  %v\n want %v", q, got, want)
		}
	}
}

func TestRemoteAggregate(t *testing.T) {
	sys, _ := remoteSystem(t)
	got, tm, err := sys.AggregateMinMax("//insurance/policy", false)
	if err != nil {
		t.Fatalf("remote MIN: %v", err)
	}
	if got != "26544" {
		t.Errorf("MIN(policy) = %q, want 26544", got)
	}
	if tm.BlocksShipped != 1 {
		t.Errorf("remote aggregate shipped %d blocks", tm.BlocksShipped)
	}
}

func TestRemoteUpdate(t *testing.T) {
	sys, _ := remoteSystem(t)
	n, err := sys.UpdateLeafValues("//patient[pname='Matt']//disease", "cholera")
	if err != nil {
		t.Fatalf("remote update: %v", err)
	}
	if n != 1 {
		t.Fatalf("updated %d", n)
	}
	nodes, _, _, err := sys.Query("//patient[.//disease='cholera']/pname")
	if err != nil {
		t.Fatalf("post-update query: %v", err)
	}
	if len(nodes) != 1 || nodes[0].LeafValue() != "Matt" {
		t.Errorf("post-update result: %v", core.ResultStrings(nodes))
	}
}

func TestServiceErrors(t *testing.T) {
	ts := httptest.NewServer(NewService())
	defer ts.Close()
	hc := ts.Client()

	// Unknown database.
	resp, err := hc.Post(ts.URL+"/db/ghost/query", "application/octet-stream", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("ghost db: %d", resp.StatusCode)
	}

	// Bad upload body.
	req, _ := http.NewRequest(http.MethodPut, ts.URL+"/db/x", strings.NewReader("garbage"))
	resp, err = hc.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("garbage upload: %d", resp.StatusCode)
	}

	// Unknown endpoint.
	resp, err = hc.Get(ts.URL + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown path: %d", resp.StatusCode)
	}

	// Health.
	resp, err = hc.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz: %d", resp.StatusCode)
	}
}

func TestServiceStats(t *testing.T) {
	sys, ts := remoteSystem(t)
	_ = sys
	resp, err := ts.Client().Get(ts.URL + "/db/hospital/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats: %d", resp.StatusCode)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("stats body: %v", err)
	}
	body := string(raw)
	for _, key := range []string{"blocks", "indexEntries", "overload"} {
		if !strings.Contains(body, key) {
			t.Errorf("stats missing %s: %s", key, body)
		}
	}
	// The overload block (always present; the zero-config controller
	// still reports its counters) carries exactly the gate's keys.
	var stats struct {
		Overload map[string]json.Number `json:"overload"`
	}
	if err := json.Unmarshal(raw, &stats); err != nil {
		t.Fatalf("stats decode: %v", err)
	}
	var keys []string
	for k := range stats.Overload {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	want := []string{"admitted", "expected_latency_ms", "in_flight_cost", "queue_depth",
		"rejected", "rejected_deadline", "rejected_queue"}
	if !reflect.DeepEqual(keys, want) {
		t.Errorf("overload keys = %v, want %v", keys, want)
	}
	if stats.Overload["rejected"] != "0" {
		t.Errorf("idle service reports %s rejections", stats.Overload["rejected"])
	}
}

func TestRemoteBadQueryBody(t *testing.T) {
	_, ts := remoteSystem(t)
	resp, err := ts.Client().Post(ts.URL+"/db/hospital/query", "application/octet-stream", strings.NewReader("not a query"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad query body: %d", resp.StatusCode)
	}
}

// TestRemoteExtremeNotFound: /extreme answers in one format, found or
// not, with or without a proof. An empty window is an answer (found=0,
// no block), not an error; a proof is present exactly when asked for,
// and it verifies — emptiness included. A client with a verifier
// installed checks only the results it asked a proof for: a proofless
// probe is never mistaken for a stripped proof.
func TestRemoteExtremeNotFound(t *testing.T) {
	sys, cl, _ := remoteSystemClient(t)
	st, err := wire.BuildAuthState(sys.HostedDB)
	if err != nil {
		t.Fatal(err)
	}
	v := st.Verifier()
	for _, verifying := range []bool{false, true} {
		if verifying {
			cl.WithVerifier(v)
		}
		for _, c := range []struct {
			lo, hi uint64
			found  bool
		}{{1, 2, false}, {0, ^uint64(0), true}} {
			for _, wantProof := range []bool{false, true} {
				res, err := cl.Extreme(context.Background(), c.lo, c.hi, false, wantProof)
				if err != nil {
					t.Fatalf("verifier=%v [%d,%d] proof=%v: Extreme: %v", verifying, c.lo, c.hi, wantProof, err)
				}
				if res.Found != c.found {
					t.Fatalf("verifier=%v [%d,%d] proof=%v: found=%v, want %v", verifying, c.lo, c.hi, wantProof, res.Found, c.found)
				}
				if c.found && !bytes.Equal(res.Block, sys.HostedDB.Blocks[res.BlockID]) {
					t.Errorf("verifier=%v [%d,%d] proof=%v: block %d is not the hosted ciphertext", verifying, c.lo, c.hi, wantProof, res.BlockID)
				}
				if !c.found && res.Block != nil {
					t.Errorf("verifier=%v [%d,%d] proof=%v: empty window shipped %d block bytes", verifying, c.lo, c.hi, wantProof, len(res.Block))
				}
				if got := len(res.Proof) > 0; got != wantProof {
					t.Fatalf("verifier=%v [%d,%d] proof=%v: response carries a proof: %v", verifying, c.lo, c.hi, wantProof, got)
				}
				if wantProof {
					if err := v.VerifyExtreme(c.lo, c.hi, false, res.Found, res.BlockID, res.Block, res.Proof); err != nil {
						t.Errorf("verifier=%v [%d,%d]: proof does not verify: %v", verifying, c.lo, c.hi, err)
					}
				}
			}
		}
	}
}
