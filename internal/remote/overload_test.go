package remote

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/wire"
	"repro/internal/xmltree"
)

// Overload-protection tests: deadline propagation and rejection, the
// cost gate's sheds over real HTTP, and the client side of the shed
// protocol (Retry-After honoring).

// overloadSystem hosts the hospital DB on a service built by
// configure and returns the owner system plus the raw test server.
func overloadSystem(t *testing.T, configure func(*Service) *Service) (*core.System, *Client, *httptest.Server, *Service) {
	t.Helper()
	doc, err := xmltree.ParseString(hospitalXML)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	sys, err := core.Host(doc, scs, core.SchemeOpt, []byte("overload-test"))
	if err != nil {
		t.Fatalf("Host: %v", err)
	}
	svc := NewService()
	if configure != nil {
		svc = configure(svc)
	}
	ts := httptest.NewServer(svc)
	t.Cleanup(ts.Close)
	cl := Dial(ts.URL, "hospital").WithHTTPClient(ts.Client())
	if err := cl.Upload(context.Background(), sys.HostedDB); err != nil {
		t.Fatalf("Upload: %v", err)
	}
	sys.UseBackend(cl)
	return sys, cl, ts, svc
}

// TestDeadlineRejectOnArrival: a caller whose propagated budget cannot
// cover the service's expected latency is turned away with 504 before
// any work starts — and the client does not retry, because every retry
// would arrive with strictly less budget.
func TestDeadlineRejectOnArrival(t *testing.T) {
	var attempts atomic.Int32
	_, _, ts, svc := overloadSystem(t, nil)
	// Count probe attempts through a wrapper client transport — the
	// service itself is already running, so count on the client side.
	cl := Dial(ts.URL, "hospital").
		WithHTTPClient(&http.Client{Transport: countingTransport{ts.Client().Transport, &attempts}}).
		WithRetry(RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, Multiplier: 2})

	// The service expects ~300ms per request; give it a 100ms budget.
	svc.Admission().SeedExpectedLatency(300 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	probe := &wire.Query{Probe: &wire.Probe{Lo: 1, Hi: 2}}
	_, _, err := cl.Execute(ctx, probe)
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusGatewayTimeout {
		t.Fatalf("infeasible deadline: err = %v, want 504", err)
	}
	if got := attempts.Load(); got != 1 {
		t.Errorf("504 was retried: %d attempts, want 1 (each retry has less budget)", got)
	}
	if se.Temporary() {
		t.Errorf("504 classified as temporary")
	}

	// A budget that covers the expectation sails through.
	attempts.Store(0)
	ctx2, cancel2 := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel2()
	if _, _, err := cl.Execute(ctx2, probe); err != nil {
		t.Fatalf("feasible deadline rejected: %v", err)
	}
	if svc.Admission().Snapshot().RejectedDeadline == 0 {
		t.Errorf("deadline shed not counted in the snapshot")
	}
}

// countingTransport counts round trips (per-attempt, not per-op).
type countingTransport struct {
	rt http.RoundTripper
	n  *atomic.Int32
}

func (c countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	c.n.Add(1)
	rt := c.rt
	if rt == nil {
		rt = http.DefaultTransport
	}
	return rt.RoundTrip(r)
}

// TestDeadlineCancelsQueuedWork: a request admitted after its
// propagated deadline passed (it sat behind a saturated gate) is
// abandoned by the execution pipeline, answered 504 — the worker never
// computes an answer nobody reads.
func TestDeadlineCancelsQueuedWork(t *testing.T) {
	_, _, ts, svc := overloadSystem(t, func(s *Service) *Service {
		return s.WithAdmission(admission.Config{MaxCost: 1, QueueWait: 5 * time.Second})
	})
	// Occupy the gate's only cost unit.
	tk, rej := svc.Admission().Admit(context.Background(), admission.Request{Cost: 1})
	if rej != nil {
		t.Fatalf("saturating admit rejected: %+v", rej)
	}

	frame, err := wire.MarshalQuery(&wire.Query{})
	if err != nil {
		t.Fatal(err)
	}
	type result struct {
		code int
		body string
	}
	done := make(chan result, 1)
	go func() {
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/db/hospital/query", bytes.NewReader(frame))
		req.Header.Set(wire.HeaderDeadlineMS, "50") // expires while queued
		resp, err := ts.Client().Do(req)
		if err != nil {
			done <- result{-1, err.Error()}
			return
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		done <- result{resp.StatusCode, string(body)}
	}()

	// Hold capacity well past the request's 50ms budget, then free it:
	// the waiter is admitted with an already-expired deadline.
	time.Sleep(200 * time.Millisecond)
	tk.Done()
	select {
	case res := <-done:
		if res.code != http.StatusGatewayTimeout {
			t.Fatalf("expired-in-queue request: %d %q, want 504", res.code, res.body)
		}
		if !strings.Contains(res.body, "deadline") {
			t.Errorf("504 body does not name the deadline: %q", res.body)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("queued request never answered")
	}
}

// TestClientHonorsRetryAfter: the retry loop waits at least the
// server's Retry-After hint before the next attempt, and gives up
// without sleeping when the hint exceeds the caller's remaining
// deadline.
func TestClientHonorsRetryAfter(t *testing.T) {
	var stamps []time.Time
	var mu sync.Mutex
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		stamps = append(stamps, time.Now())
		mu.Unlock()
		w.Header().Set("Retry-After", "1")
		http.Error(w, "shed", http.StatusServiceUnavailable)
	}))
	defer ts.Close()

	cl := Dial(ts.URL, "db").
		WithHTTPClient(ts.Client()).
		WithRetry(RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: time.Millisecond, Multiplier: 1}).
		WithBreaker(BreakerConfig{})
	_, _, err := cl.Execute(context.Background(), &wire.Query{})
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusServiceUnavailable {
		t.Fatalf("err = %v, want 503", err)
	}
	mu.Lock()
	n, gap := len(stamps), time.Duration(0)
	if n == 2 {
		gap = stamps[1].Sub(stamps[0])
	}
	mu.Unlock()
	if n != 2 {
		t.Fatalf("%d attempts, want 2", n)
	}
	if gap < 900*time.Millisecond {
		t.Errorf("retry after %v, want >= ~1s (the server's hint, not the 1ms policy delay)", gap)
	}

	// Hint beyond the caller's deadline: stop immediately, zero sleeps.
	mu.Lock()
	stamps = nil
	mu.Unlock()
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, _, err = cl.Execute(ctx, &wire.Query{})
	if err == nil {
		t.Fatal("shed server succeeded")
	}
	if el := time.Since(start); el > 250*time.Millisecond {
		t.Errorf("client slept %v toward a hint its deadline cannot cover", el)
	}
	mu.Lock()
	n = len(stamps)
	mu.Unlock()
	if n != 1 {
		t.Errorf("%d attempts, want 1 (hint exceeds remaining budget)", n)
	}
}

// captureFrame records the last /query request body flowing through.
type captureFrame struct {
	svc   http.Handler
	mu    sync.Mutex
	frame []byte
}

func (c *captureFrame) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if strings.HasSuffix(r.URL.Path, "/query") {
		data, _ := io.ReadAll(r.Body)
		r.Body.Close()
		c.mu.Lock()
		c.frame = append(c.frame[:0], data...)
		c.mu.Unlock()
		r.Body = io.NopCloser(bytes.NewReader(data))
	}
	c.svc.ServeHTTP(w, r)
}

func (c *captureFrame) lastFrame() []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]byte(nil), c.frame...)
}

// TestOverloadSmoke is the short open-loop overload check wired into
// `make check`, integrity on: a burst against a saturated one-unit
// gate must shed with Retry-After rather than queue without bound;
// once the gate frees, the queued remainder is served, and every
// success is a whole SXS1 stream whose trailer checksum verifies and
// whose Merkle proof the owner's verifier accepts — overload never
// relaxes integrity. The gate frees
// on the first observed shed, so nothing depends on how fast the box
// is.
func TestOverloadSmoke(t *testing.T) {
	doc, err := xmltree.ParseString(hospitalXML)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	sys, err := core.Host(doc, scs, core.SchemeOpt, []byte("smoke-test"))
	if err != nil {
		t.Fatalf("Host: %v", err)
	}
	if err := sys.EnableIntegrity(); err != nil {
		t.Fatalf("EnableIntegrity: %v", err)
	}
	ver := sys.Verifier()
	svc := NewService().WithAdmission(admission.Config{
		MaxCost:   1,
		MaxQueue:  4,
		QueueWait: time.Minute,
	})
	cap := &captureFrame{svc: svc}
	ts := httptest.NewServer(cap)
	t.Cleanup(ts.Close)
	cl := Dial(ts.URL, "hospital").WithHTTPClient(ts.Client()).WithVerifier(ver)
	if err := cl.Upload(context.Background(), sys.HostedDB); err != nil {
		t.Fatalf("Upload: %v", err)
	}
	sys.UseBackend(cl)
	if _, _, _, err := sys.Query("//patient/pname"); err != nil {
		t.Fatalf("seed query: %v", err)
	}
	frame := cap.lastFrame()
	if len(frame) == 0 {
		t.Fatal("no query frame captured; smoke test is vacuous")
	}

	// Saturate the single cost unit, then fire an open-loop burst:
	// every request launches regardless of how the previous one fared.
	tk, rej := svc.Admission().Admit(context.Background(), admission.Request{Cost: 1})
	if rej != nil {
		t.Fatalf("saturating admit rejected: %+v", rej)
	}
	const burst = 24
	codes := make(chan int, burst)
	for i := 0; i < burst; i++ {
		go func() {
			resp, err := ts.Client().Post(ts.URL+"/db/hospital/query", "application/octet-stream", bytes.NewReader(frame))
			if err != nil {
				codes <- -1
				return
			}
			defer resp.Body.Close()
			switch resp.StatusCode {
			case http.StatusServiceUnavailable:
				if resp.Header.Get("Retry-After") == "" {
					t.Errorf("shed without Retry-After")
				}
			case http.StatusOK:
				ans, err := wire.DecodeStreamAnswer(resp.Body, nil)
				if err != nil {
					t.Errorf("success is not a whole SXS1 stream: %v", err)
					break
				}
				if err := ver.VerifyAnswer(ans); err != nil {
					t.Errorf("answer served under overload fails verification: %v", err)
				}
			}
			codes <- resp.StatusCode
		}()
	}
	// The first shed means the queue is full behind the held unit:
	// the gate frees and the queued requests drain through it.
	shed, served := 0, 0
	for i := 0; i < burst; i++ {
		switch code := <-codes; code {
		case http.StatusServiceUnavailable:
			if shed++; shed == 1 {
				tk.Done()
			}
		case http.StatusOK:
			served++
		default:
			t.Errorf("unexpected status under overload: %d", code)
		}
	}
	if shed == 0 {
		t.Fatalf("saturated gate shed nothing across %d open-loop arrivals", burst)
	}
	if served == 0 {
		t.Errorf("nothing queued behind the saturated gate was served once it freed")
	}
	if d := svc.Admission().QueueDepth(); d != 0 {
		t.Errorf("QueueDepth = %d after the burst drained, want 0", d)
	}
	if st := svc.Admission().Snapshot(); st.Rejected < int64(shed) {
		t.Errorf("snapshot rejected %d < observed sheds %d", st.Rejected, shed)
	}
}
