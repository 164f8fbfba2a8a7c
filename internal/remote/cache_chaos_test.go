package remote

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/xmltree"
)

// TestCachedAnswerOutageAndRecovery flips the breaker open mid-sequence
// (threshold 1, injected 503) on a query the server's answer cache
// already holds:
//
//  1. during the outage the owner returns the typed error — the
//     injected 503, then ErrCircuitOpen — never an answer;
//  2. after the cooldown the same query is answered live and
//     verified, at the generation it had before the outage.
func TestCachedAnswerOutageAndRecovery(t *testing.T) {
	doc, _ := xmltree.ParseString(hospitalXML)
	sys, err := core.Host(doc, scs, core.SchemeOpt, []byte("cache-chaos"))
	if err != nil {
		t.Fatalf("Host: %v", err)
	}
	if err := sys.EnableIntegrity(); err != nil {
		t.Fatalf("EnableIntegrity: %v", err)
	}

	svc := NewService()
	var failing atomic.Bool
	mux := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if failing.Load() && r.URL.Path != "/healthz" {
			http.Error(w, "injected outage", http.StatusServiceUnavailable)
			return
		}
		svc.ServeHTTP(w, r)
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	cl := Dial(ts.URL, "hospital").
		WithHTTPClient(ts.Client()).
		WithRetry(NoRetry).
		WithBreaker(BreakerConfig{FailureThreshold: 1, Cooldown: 30 * time.Millisecond, ProbeTimeout: time.Second}).
		WithVerifier(sys.Verifier())
	if err := cl.Upload(context.Background(), sys.HostedDB); err != nil {
		t.Fatalf("Upload: %v", err)
	}
	sys.UseBackend(cl)

	const q = "//patient[.//disease='leukemia']/pname"
	var warm core.Timings
	for i := 0; i < 2; i++ { // the second run is served from the answer cache
		nodes, _, tm, err := sys.Query(q)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if len(nodes) != 1 || nodes[0].LeafValue() != "Matt" {
			t.Fatalf("answer %d: %v", i, core.ResultStrings(nodes))
		}
		warm = tm
	}
	if warm.Generation == 0 || warm.Epoch == 0 {
		t.Fatalf("remote answer did not echo the generation (epoch=%d gen=%d)", warm.Epoch, warm.Generation)
	}

	failing.Store(true)
	for i := 0; i < 2; i++ {
		nodes, _, _, err := sys.Query(q)
		if err == nil || nodes != nil {
			t.Fatalf("query %d during the outage: %d nodes, err %v; want a typed error and no answer", i, len(nodes), err)
		}
		if i == 1 && !errors.Is(err, ErrCircuitOpen) {
			t.Errorf("query with the breaker open: %v, want ErrCircuitOpen", err)
		}
	}

	failing.Store(false)
	time.Sleep(40 * time.Millisecond)
	nodes, _, rec, err := sys.Query(q)
	if err != nil {
		t.Fatalf("post-recovery query: %v", err)
	}
	if len(nodes) != 1 || nodes[0].LeafValue() != "Matt" || rec.Verify <= 0 {
		t.Fatalf("post-recovery answer %v (verify %v), want a verified [Matt]", core.ResultStrings(nodes), rec.Verify)
	}
	if rec.Generation != warm.Generation || rec.Epoch != warm.Epoch {
		t.Errorf("generation moved across the outage without an update: %d:%d -> %d:%d",
			warm.Epoch, warm.Generation, rec.Epoch, rec.Generation)
	}
}
