package remote

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
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

// Overload-protection tests: deadline propagation and rejection,
// brownout degradation levels over real HTTP, per-tenant quotas, and
// the client side of the shed protocol (Retry-After honoring).

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
	// Count extreme attempts through a wrapper client transport — the
	// service itself is already running, so count on the client side.
	cl := Dial(ts.URL, "hospital").
		WithHTTPClient(&http.Client{Transport: countingTransport{ts.Client().Transport, &attempts}}).
		WithRetry(RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, Multiplier: 2})

	// The service expects ~300ms per request; give it a 100ms budget.
	svc.Admission().SeedExpectedLatency(300 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	_, _, _, err := cl.Extreme(ctx, 1, 2, false)
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
	if _, _, _, err := cl.Extreme(ctx2, 1, 2, false); err != nil {
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

// brownoutSystem is overloadSystem with the brownout controller on and
// its evaluation window pushed out so a forced level stays put, plus
// integrity verification so the degraded path's proofs are checked.
func brownoutSystem(t *testing.T) (*core.System, *Client, *httptest.Server, *Service) {
	sys, cl, ts, svc := overloadSystem(t, func(s *Service) *Service {
		return s.WithAdmission(admission.Config{
			Brownout:       true,
			BrownoutConfig: admission.BrownoutConfig{Window: time.Hour},
		})
	})
	if err := sys.EnableIntegrity(); err != nil {
		t.Fatalf("EnableIntegrity: %v", err)
	}
	cl.WithVerifier(sys.Verifier()).WithRetry(NoRetry)
	return sys, cl, ts, svc
}

// TestBrownoutCachedOnlyServing: at L2 the service answers only from
// the generation-tagged answer cache — warm queries still come back
// complete, verified, and marked degraded; cold queries shed with a
// Retry-After. Integrity is never relaxed: the cached answer carries
// the same Merkle proof a live execution produced.
func TestBrownoutCachedOnlyServing(t *testing.T) {
	sys, _, _, svc := brownoutSystem(t)

	// Warm the answer cache at full service.
	const warm = "//patient/pname"
	nodes, _, tm, err := sys.Query(warm)
	if err != nil {
		t.Fatalf("warm query: %v", err)
	}
	if tm.Degraded || tm.BrownoutLevel != 0 {
		t.Fatalf("full-service answer marked degraded: %+v", tm)
	}
	want := core.ResultStrings(nodes)
	sort.Strings(want)

	svc.Admission().ForceBrownoutLevel(admission.LevelCachedOnly)

	// The warm query is served from the cache, verified, and flagged.
	nodes, _, tm, err = sys.Query(warm)
	if err != nil {
		t.Fatalf("cached query under brownout: %v", err)
	}
	got := core.ResultStrings(nodes)
	sort.Strings(got)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("degraded answer %v != full-service answer %v", got, want)
	}
	if !tm.Degraded {
		t.Errorf("cache-served answer not marked degraded")
	}
	if tm.BrownoutLevel != admission.LevelCachedOnly {
		t.Errorf("answer reports brownout level %d, want %d", tm.BrownoutLevel, admission.LevelCachedOnly)
	}

	// A cold query sheds with a computed Retry-After.
	_, _, _, err = sys.Query("//treat/doctor")
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusServiceUnavailable {
		t.Fatalf("cold query under L2: err = %v, want 503", err)
	}
	if !strings.Contains(se.Body, "cached answers only") {
		t.Errorf("shed body: %q", se.Body)
	}
	if se.RetryAfter < time.Second {
		t.Errorf("shed Retry-After = %v, want >= 1s floor", se.RetryAfter)
	}
	if svc.Admission().Snapshot().DegradedServed == 0 {
		t.Errorf("degraded serving not counted")
	}

	// Back at L0 the cold query executes normally again.
	svc.Admission().ForceBrownoutLevel(admission.LevelFull)
	if _, _, _, err := sys.Query("//treat/doctor"); err != nil {
		t.Fatalf("query after recovery: %v", err)
	}
}

// TestBrownoutCriticalClassFilter: at L3 only the interactive class is
// admitted at all — aggregates and updates shed before touching the
// database, and interactive queries still get cache-only service.
func TestBrownoutCriticalClassFilter(t *testing.T) {
	sys, _, ts, svc := brownoutSystem(t)
	const warm = "//patient/pname"
	if _, _, _, err := sys.Query(warm); err != nil {
		t.Fatalf("warm query: %v", err)
	}
	svc.Admission().ForceBrownoutLevel(admission.LevelCritical)

	// Aggregate-class extreme probe: shed by the class filter.
	resp, err := ts.Client().Get(ts.URL + "/db/hospital/extreme?lo=1&hi=2&max=0")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("aggregate under L3: %d %q, want 503", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "interactive") {
		t.Errorf("class-filter body: %q", body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Errorf("class-filter shed carries no Retry-After")
	}

	// Background update: shed before a byte of body is parsed.
	resp, err = ts.Client().Post(ts.URL+"/db/hospital/update", "application/octet-stream", strings.NewReader("ignored"))
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("update under L3: %d %q, want 503", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "deferring") {
		t.Errorf("update shed body: %q", body)
	}

	// Interactive warm query: cache-only service still answers it.
	_, _, tm, err := sys.Query(warm)
	if err != nil {
		t.Fatalf("interactive warm query under L3: %v", err)
	}
	if !tm.Degraded || tm.BrownoutLevel != admission.LevelCritical {
		t.Errorf("L3 cached answer flags: %+v", tm)
	}
}

// TestTenantQuota: per-tenant token buckets bound each client ID
// separately — one tenant exhausting its budget gets 429 with a
// Retry-After while another tenant's requests keep flowing.
func TestTenantQuota(t *testing.T) {
	_, _, ts, svc := overloadSystem(t, func(s *Service) *Service {
		return s.WithAdmission(admission.Config{TenantRate: 1, TenantBurst: 2})
	})
	ctx := context.Background()
	greedy := Dial(ts.URL, "hospital").WithHTTPClient(ts.Client()).WithRetry(NoRetry).WithTenant("greedy")
	polite := Dial(ts.URL, "hospital").WithHTTPClient(ts.Client()).WithRetry(NoRetry).WithTenant("polite")

	// Burst of 2 is fine; the third request overdraws the bucket.
	for i := 0; i < 2; i++ {
		if _, _, _, err := greedy.Extreme(ctx, 1, 2, false); err != nil {
			t.Fatalf("in-quota probe %d: %v", i, err)
		}
	}
	_, _, _, err := greedy.Extreme(ctx, 1, 2, false)
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusTooManyRequests {
		t.Fatalf("over-quota probe: err = %v, want 429", err)
	}
	if se.RetryAfter < time.Second {
		t.Errorf("quota 429 Retry-After = %v, want >= 1s", se.RetryAfter)
	}

	// The other tenant is untouched by the greedy one's exhaustion.
	if _, _, _, err := polite.Extreme(ctx, 1, 2, false); err != nil {
		t.Fatalf("other tenant blocked: %v", err)
	}
	if svc.Admission().Snapshot().RejectedTenant == 0 {
		t.Errorf("tenant shed not counted")
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
	_, err := cl.Execute(context.Background(), &wire.Query{})
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
	_, err = cl.Execute(ctx, &wire.Query{})
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
// gate must shed with Retry-After rather than queue without bound and
// push the brownout controller off full service; once the gate frees,
// the queued remainder is served, and every success carries its
// checksum and a Merkle proof the owner's verifier accepts — overload
// never relaxes integrity. After the pressure lifts the controller
// returns to L0 with sane counters. Only queue depth drives the
// controller here (the latency target and window are out of reach),
// and the gate frees on the first observed shed, so nothing depends
// on how fast the box is.
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
		Brownout:  true,
		BrownoutConfig: admission.BrownoutConfig{
			HighQueueDepth: 2,
			TargetP99:      time.Hour,
			Window:         time.Hour,
		},
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
		go func(i int) {
			req, _ := http.NewRequest(http.MethodPost, ts.URL+"/db/hospital/query", bytes.NewReader(frame))
			req.Header.Set(wire.HeaderPriority, []string{"interactive", "aggregate", "background"}[i%3])
			req.Header.Set(wire.HeaderClientID, fmt.Sprintf("smoke-%d", i%4))
			resp, err := ts.Client().Do(req)
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
				if resp.Header.Get(checksumHeader) == "" {
					t.Errorf("success without integrity checksum")
				}
				body, err := readChecksummedBody(resp, 1<<20)
				if err != nil {
					t.Errorf("success body: %v", err)
					break
				}
				ans, err := wire.UnmarshalAnswer(body)
				if err != nil {
					t.Errorf("success decode: %v", err)
					break
				}
				if err := ver.VerifyAnswer(ans); err != nil {
					t.Errorf("answer served under overload fails verification: %v", err)
				}
			}
			codes <- resp.StatusCode
		}(i)
	}
	// The first shed means the queue is full behind the held unit:
	// that backlog must degrade the service one level. Then the gate
	// frees and the queued requests drain through it.
	shed, served := 0, 0
	for i := 0; i < burst; i++ {
		switch code := <-codes; code {
		case http.StatusServiceUnavailable:
			if shed++; shed == 1 {
				svc.Admission().Tick()
				if lvl := svc.Admission().Level(); lvl == admission.LevelFull {
					t.Errorf("brownout still at L0 with the queue full")
				}
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

	// Pressure lifted: the next request serves (and verifies, through
	// the client), and the brownout controller settles back at L0
	// within one window.
	if _, _, _, err := sys.Query("//patient/pname"); err != nil {
		t.Fatalf("query after overload: %v", err)
	}
	svc.Admission().Tick()
	if lvl := svc.Admission().Level(); lvl != admission.LevelFull {
		t.Errorf("brownout level %d after recovery, want 0", lvl)
	}
	st := svc.Admission().Snapshot()
	if st.Rejected < int64(shed) {
		t.Errorf("snapshot rejected %d < observed sheds %d", st.Rejected, shed)
	}
	var admitted int64
	for _, v := range st.Admitted {
		admitted += v
	}
	if admitted == 0 {
		t.Errorf("no admits counted")
	}
}
