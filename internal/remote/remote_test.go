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
	"repro/internal/gencache"
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

// TestRemoteAggregateRidesQueryPath: an aggregate's probe is a query,
// so its Timings carry what a query's do — the generation echo and the
// stream — a repeat is served from the server's answer cache, and the
// next commit drops that answer: the probe after it sees generation + 1
// and the updated minimum.
func TestRemoteAggregateRidesQueryPath(t *testing.T) {
	doc, _ := xmltree.ParseString(hospitalXML)
	sys, err := core.Host(doc, scs, core.SchemeOpt, []byte("probe-query-path"))
	if err != nil {
		t.Fatalf("Host: %v", err)
	}
	if err := sys.EnableIntegrity(); err != nil {
		t.Fatalf("EnableIntegrity: %v", err)
	}
	svc := NewService()
	ts := httptest.NewServer(svc)
	defer ts.Close()
	cl := Dial(ts.URL, "hospital").WithHTTPClient(ts.Client()).WithVerifier(sys.Verifier())
	if err := cl.Upload(context.Background(), sys.HostedDB); err != nil {
		t.Fatalf("Upload: %v", err)
	}
	sys.UseBackend(cl)
	answerCache := func() gencache.Stats { return svc.CacheStats()["hospital"]["answers"] }
	aggregate := func(want string) core.Timings {
		t.Helper()
		got, tm, err := sys.AggregateMinMax("//insurance/policy", false)
		if err != nil {
			t.Fatalf("MIN(policy): %v", err)
		}
		if got != want || tm.BlocksShipped != 1 {
			t.Fatalf("MIN(policy) = %q over %d blocks, want %q from one", got, tm.BlocksShipped, want)
		}
		return tm
	}

	first := aggregate("26544")
	if !first.Streamed || first.StreamChunks == 0 || first.Generation == 0 || first.Epoch == 0 {
		t.Errorf("probe timings: streamed %v (%d chunks), generation %d, epoch %d; want a streamed answer with the echo",
			first.Streamed, first.StreamChunks, first.Generation, first.Epoch)
	}
	before := answerCache()
	if again := aggregate("26544"); again.Generation != first.Generation || again.Epoch != first.Epoch {
		t.Errorf("repeated probe at generation %d/%d, want %d/%d", again.Epoch, again.Generation, first.Epoch, first.Generation)
	}
	if hits := answerCache().Hits - before.Hits; hits != 1 {
		t.Errorf("repeated probe: %d answer-cache hits, want 1", hits)
	}

	if _, err := sys.UpdateLeafValues("//patient[pname='Betty']/insurance/policy", "1"); err != nil {
		t.Fatalf("update: %v", err)
	}
	before = answerCache()
	if after := aggregate("1"); after.Generation != first.Generation+1 || after.Epoch != first.Epoch {
		t.Errorf("probe after the update at generation %d/%d, want %d/%d", after.Epoch, after.Generation, first.Epoch, first.Generation+1)
	}
	if hits := answerCache().Hits - before.Hits; hits != 0 {
		t.Errorf("probe after the update: %d answer-cache hits, want the commit to have dropped the cached answer", hits)
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

// TestRemoteExtremeNotFound: a MIN/MAX probe travels as a query frame
// and answers in the one answer format, found or not, with or without
// a proof. An empty window is an answer (no block), not an error; a
// proof is present exactly when asked for, and it verifies — emptiness
// included — both against the root and as a claim about the probe. A
// client with a verifier installed checks the answer inside the
// attempt, like any query's.
func TestRemoteExtremeNotFound(t *testing.T) {
	sys, cl, _ := remoteSystemClient(t)
	st, err := wire.BuildAuthState(sys.HostedDB)
	if err != nil {
		t.Fatal(err)
	}
	v := st.Verifier()
	for _, verifying := range []bool{false, true} {
		// A verifying client refuses a proofless answer, probe or not.
		wantProofs := []bool{false, true}
		if verifying {
			cl.WithVerifier(v)
			wantProofs = wantProofs[1:]
		}
		for _, c := range []struct {
			lo, hi uint64
			found  bool
		}{{1, 2, false}, {0, ^uint64(0), true}} {
			for _, wantProof := range wantProofs {
				probe := &wire.Probe{Lo: c.lo, Hi: c.hi}
				ans, _, err := cl.Execute(context.Background(), &wire.Query{WantProof: wantProof, Probe: probe})
				if err != nil {
					t.Fatalf("verifier=%v [%d,%d] proof=%v: probe: %v", verifying, c.lo, c.hi, wantProof, err)
				}
				if got := len(ans.BlockIDs) == 1; got != c.found || len(ans.Blocks) > 1 || len(ans.Fragments) > 0 {
					t.Fatalf("verifier=%v [%d,%d] proof=%v: %d fragments, blocks %v; want found=%v", verifying, c.lo, c.hi, wantProof, len(ans.Fragments), ans.BlockIDs, c.found)
				}
				if c.found && !bytes.Equal(ans.Blocks[0], sys.HostedDB.Blocks[ans.BlockIDs[0]]) {
					t.Errorf("verifier=%v [%d,%d] proof=%v: block %d is not the hosted ciphertext", verifying, c.lo, c.hi, wantProof, ans.BlockIDs[0])
				}
				if got := len(ans.Proof) > 0; got != wantProof {
					t.Fatalf("verifier=%v [%d,%d] proof=%v: answer carries a proof: %v", verifying, c.lo, c.hi, wantProof, got)
				}
				if wantProof {
					if err := v.VerifyAnswer(ans); err != nil {
						t.Errorf("verifier=%v [%d,%d]: proof does not verify: %v", verifying, c.lo, c.hi, err)
					}
					if err := wire.CheckProbe(probe, ans); err != nil {
						t.Errorf("verifier=%v [%d,%d]: probe check: %v", verifying, c.lo, c.hi, err)
					}
				}
			}
		}
	}
}
