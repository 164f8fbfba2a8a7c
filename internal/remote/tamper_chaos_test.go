package remote

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/authtree"
	"repro/internal/core"
	"repro/internal/wire"
	"repro/internal/xmltree"
)

// TestTamperTripsBreaker is the whole story for a server that turns
// byzantine mid-flight:
//
//  1. the tampered answer carries a valid stream trailer checksum (the
//     bytes are exactly what the server sent) but fails Merkle
//     verification — caught in-attempt as ErrTampered;
//  2. ErrTampered is NOT retried: retrying a byzantine server hands
//     it another oracle query;
//  3. the breaker trips immediately (no waiting for the consecutive-
//     failure threshold), so the next query never touches the wire;
//  4. neither query returns an answer: the owner surfaces the typed
//     error (ErrTampered, then ErrCircuitOpen) and nothing else.
func TestTamperTripsBreaker(t *testing.T) {
	doc, _ := xmltree.ParseString(hospitalXML)
	sys, err := core.Host(doc, scs, core.SchemeOpt, []byte("tamper-chaos"))
	if err != nil {
		t.Fatalf("Host: %v", err)
	}
	if err := sys.EnableIntegrity(); err != nil {
		t.Fatalf("EnableIntegrity: %v", err)
	}

	svc := NewService()
	var tampering atomic.Bool
	var queryHits atomic.Int32
	mux := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/db/hospital/query" {
			queryHits.Add(1)
			if tampering.Load() {
				// Serve a tampered answer with a VALID trailer
				// checksum: the server really sent these bytes, they
				// just don't hash to the committed state.
				rec := &bufferedResponse{header: http.Header{}, code: http.StatusOK}
				svc.ServeHTTP(rec, r)
				ans, err := wire.UnmarshalAnswer(rec.body.Bytes())
				if err != nil || len(ans.Blocks) == 0 {
					t.Errorf("tamper middleware: %v (blocks=%d)", err, len(ans.Blocks))
					http.Error(w, "tamper setup broken", http.StatusInternalServerError)
					return
				}
				ans.Blocks = ans.Blocks[:len(ans.Blocks)-1]
				ans.BlockIDs = ans.BlockIDs[:len(ans.BlockIDs)-1]
				out, err := wire.MarshalAnswer(ans)
				if err != nil {
					t.Errorf("remarshal: %v", err)
					return
				}
				w.Write(out)
				return
			}
		}
		svc.ServeHTTP(w, r)
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	cl := Dial(ts.URL, "hospital").
		WithHTTPClient(ts.Client()).
		WithRetry(RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, Multiplier: 2}).
		WithBreaker(BreakerConfig{FailureThreshold: 100, Cooldown: time.Hour}).
		WithVerifier(sys.Verifier())
	if err := cl.Upload(context.Background(), sys.HostedDB); err != nil {
		t.Fatalf("Upload: %v", err)
	}
	sys.UseBackend(cl)

	const q = "//patient[.//disease='leukemia']/pname"

	// Honest query: verified and answered.
	nodes, _, _, err := sys.Query(q)
	if err != nil {
		t.Fatalf("honest query: %v", err)
	}
	if len(nodes) != 1 || nodes[0].LeafValue() != "Matt" {
		t.Fatalf("honest answer: %v", core.ResultStrings(nodes))
	}

	// Byzantine phase: ErrTampered and no answer, after exactly ONE
	// wire attempt.
	tampering.Store(true)
	before := queryHits.Load()
	nodes, _, _, err = sys.Query(q)
	if !errors.Is(err, authtree.ErrTampered) || nodes != nil {
		t.Fatalf("query during tampering: %d nodes, err %v; want ErrTampered and no answer", len(nodes), err)
	}
	if got := queryHits.Load() - before; got != 1 {
		t.Errorf("tampered answer retried: %d wire attempts, want 1", got)
	}

	// The single ErrTampered tripped the breaker (threshold 100 was
	// nowhere near reached): the next query must not touch the wire
	// at all, and fails typed.
	before = queryHits.Load()
	nodes, _, _, err = sys.Query(q)
	if !errors.Is(err, ErrCircuitOpen) || nodes != nil {
		t.Errorf("query with the breaker open: %d nodes, err %v; want ErrCircuitOpen and no answer", len(nodes), err)
	}
	if got := queryHits.Load() - before; got != 0 {
		t.Errorf("breaker open but %d wire attempts reached the service", got)
	}
}

// TestTamperedExtremeNotRetried: the aggregate path has the same
// no-retry discipline — its probe is a query, so a forged probe answer
// (with a valid SXS1 trailer) fails verification in-attempt, is not
// retried, and trips the breaker.
func TestTamperedExtremeNotRetried(t *testing.T) {
	doc, _ := xmltree.ParseString(hospitalXML)
	sys, err := core.Host(doc, scs, core.SchemeOpt, []byte("tamper-extreme"))
	if err != nil {
		t.Fatalf("Host: %v", err)
	}
	if err := sys.EnableIntegrity(); err != nil {
		t.Fatalf("EnableIntegrity: %v", err)
	}

	svc := NewService()
	var tampering atomic.Bool
	var extremeHits atomic.Int32
	mux := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/db/hospital/query" {
			extremeHits.Add(1)
			if tampering.Load() {
				rec := &bufferedResponse{header: http.Header{}, code: http.StatusOK}
				svc.ServeHTTP(rec, r)
				ans, err := wire.UnmarshalAnswer(rec.body.Bytes())
				if err != nil || len(ans.BlockIDs) != 1 {
					t.Errorf("tamper middleware: %v (blocks=%d)", err, len(ans.BlockIDs))
					http.Error(w, "tamper setup broken", http.StatusInternalServerError)
					return
				}
				// Lie about which block holds the extreme.
				ans.BlockIDs[0]++
				out, err := wire.MarshalAnswer(ans)
				if err != nil {
					t.Errorf("remarshal: %v", err)
					return
				}
				w.Write(out)
				return
			}
		}
		svc.ServeHTTP(w, r)
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	cl := Dial(ts.URL, "hospital").
		WithHTTPClient(ts.Client()).
		WithRetry(RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, Multiplier: 2}).
		WithBreaker(BreakerConfig{FailureThreshold: 100, Cooldown: time.Hour}).
		WithVerifier(sys.Verifier())
	if err := cl.Upload(context.Background(), sys.HostedDB); err != nil {
		t.Fatalf("Upload: %v", err)
	}
	sys.UseBackend(cl)

	// Honest aggregate first.
	if _, _, err := sys.AggregateMinMax("//insurance/policy", false); err != nil {
		t.Fatalf("honest aggregate: %v", err)
	}

	tampering.Store(true)
	before := extremeHits.Load()
	_, _, err = sys.AggregateMinMax("//insurance/policy", false)
	if err == nil {
		t.Fatal("forged extreme accepted")
	}
	if !errors.Is(err, authtree.ErrTampered) {
		t.Fatalf("forged extreme error %v, want ErrTampered", err)
	}
	if got := extremeHits.Load() - before; got != 1 {
		t.Errorf("forged extreme retried: %d wire attempts, want 1", got)
	}
	// Breaker tripped: next aggregate fails fast without the wire.
	before = extremeHits.Load()
	if _, _, err := sys.AggregateMinMax("//insurance/policy", false); !errors.Is(err, ErrCircuitOpen) {
		t.Errorf("post-tamper aggregate error %v, want ErrCircuitOpen", err)
	}
	if got := extremeHits.Load() - before; got != 0 {
		t.Errorf("breaker open but %d extreme attempts reached the service", got)
	}
}
