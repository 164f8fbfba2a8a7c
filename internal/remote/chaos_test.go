package remote

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/wire"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// The chaos suite: drive the full client/server path through
// deterministic fault injection on both sides of the wire and prove
// that no combination of dropped connections, torn bodies, damaged
// bytes and injected 5xx ever produces a wrong answer, a torn
// result, or a panic — only success or a typed error.

// chaosSystem hosts the hospital database behind a chaos-wrapped
// service and points a fault-injecting client at it.
func chaosSystem(t *testing.T, serverCfg, clientCfg FaultConfig, retry RetryPolicy) (*core.System, *Client, *ChaosHandler, *FaultRoundTripper, *Service) {
	t.Helper()
	doc, err := xmltree.ParseString(hospitalXML)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	sys, err := core.Host(doc, scs, core.SchemeOpt, []byte("chaos-test"))
	if err != nil {
		t.Fatalf("Host: %v", err)
	}
	svc := NewService()
	chaos := NewChaosHandler(svc, serverCfg)
	ts := httptest.NewServer(chaos)
	t.Cleanup(ts.Close)
	frt := NewFaultRoundTripper(ts.Client().Transport, clientCfg)
	cl := Dial(ts.URL, "hospital").
		WithHTTPClient(&http.Client{Transport: frt}).
		WithRetry(retry).
		WithBreaker(BreakerConfig{}). // breaker off: tested separately
		withJitterSeed(7)
	// Upload through the faulty transport too: retries must get the
	// idempotent PUT through.
	if err := cl.Upload(context.Background(), sys.HostedDB); err != nil {
		t.Fatalf("Upload through chaos: %v", err)
	}
	sys.UseBackend(cl)
	return sys, cl, chaos, frt, svc
}

// typedError checks that err belongs to the transport's declared
// failure vocabulary; anything else (in particular a raw string
// error from a torn parse) fails the test.
func typedError(t *testing.T, op string, err error) {
	t.Helper()
	var se *StatusError
	var ue *url.Error
	switch {
	case errors.As(err, &se):
	case errors.As(err, &ue):
	case errors.Is(err, ErrCircuitOpen):
	case errors.Is(err, ErrChecksum):
	case errors.Is(err, io.ErrUnexpectedEOF):
	case errors.Is(err, context.DeadlineExceeded):
	case errors.Is(err, context.Canceled):
	default:
		t.Errorf("%s: untyped error %T: %v", op, err, err)
	}
}

var chaosQueries = []string{
	"//patient/pname",
	"//patient[.//disease='diarrhea']/SSN",
	"//patient[age>36]",
	"//treat[disease='leukemia']/doctor",
	"//insurance/@coverage",
}

// TestChaosQueriesNeverTorn runs 150 queries under ~20% combined
// injected fault rate. Every query must either return exactly the
// plaintext-equivalent answer or a typed error.
func TestChaosQueriesNeverTorn(t *testing.T) {
	sys, _, chaos, frt, _ := chaosSystem(t,
		FaultConfig{Seed: 1, ErrorRate: 0.05, TruncateRate: 0.05, CorruptRate: 0.05},
		FaultConfig{Seed: 2, DropRate: 0.05, LatencyRate: 0.05, Latency: time.Millisecond},
		RetryPolicy{MaxAttempts: 5, BaseDelay: time.Millisecond, MaxDelay: 10 * time.Millisecond, Multiplier: 2, Jitter: 0.5},
	)
	doc, _ := xmltree.ParseString(hospitalXML)
	want := map[string][]string{}
	for _, q := range chaosQueries {
		w := core.ResultStrings(xpath.Evaluate(doc, xpath.MustParse(q)))
		sort.Strings(w)
		want[q] = w
	}

	succeeded, failed := 0, 0
	for i := 0; i < 150; i++ {
		q := chaosQueries[i%len(chaosQueries)]
		nodes, _, _, err := sys.Query(q)
		if err != nil {
			typedError(t, q, err)
			failed++
			continue
		}
		got := core.ResultStrings(nodes)
		sort.Strings(got)
		if !reflect.DeepEqual(got, want[q]) {
			t.Fatalf("torn result for %s under chaos:\n got  %v\n want %v", q, got, want[q])
		}
		succeeded++
	}
	if succeeded == 0 {
		t.Fatalf("no query survived the chaos (failed=%d)", failed)
	}
	injected := chaos.Counts().Total() + frt.Counts().Total()
	if injected < 15 {
		t.Fatalf("chaos injected only %d faults across 150 queries; harness not biting", injected)
	}
	t.Logf("chaos: %d ok, %d typed failures, %d faults injected (server %+v, client %+v)",
		succeeded, failed, injected, chaos.Counts(), frt.Counts())
}

// TestChaosConcurrent hammers the faulty transport from many
// goroutines — the suite's -race workout for breaker, rng, dedup
// and cache locking.
func TestChaosConcurrent(t *testing.T) {
	sys, _, _, _, _ := chaosSystem(t,
		FaultConfig{Seed: 3, ErrorRate: 0.1, TruncateRate: 0.05},
		FaultConfig{Seed: 4, DropRate: 0.05},
		RetryPolicy{MaxAttempts: 4, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond, Multiplier: 2, Jitter: 0.5},
	)
	var wg sync.WaitGroup
	var untyped atomic.Int32
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				q := chaosQueries[(g+i)%len(chaosQueries)]
				if _, _, _, err := sys.Query(q); err != nil {
					var se *StatusError
					var ue *url.Error
					if !errors.As(err, &se) && !errors.As(err, &ue) &&
						!errors.Is(err, ErrChecksum) && !errors.Is(err, io.ErrUnexpectedEOF) &&
						!errors.Is(err, context.DeadlineExceeded) {
						untyped.Add(1)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if n := untyped.Load(); n > 0 {
		t.Errorf("%d untyped errors under concurrent chaos", n)
	}
}

// TestChaosUpdateDedup drops the acknowledgment of the first update
// (the server applies it, the client sees a 503): the retry must be
// answered from the request-ID dedup table, not re-applied, and the
// final state must be consistent.
func TestChaosUpdateDedup(t *testing.T) {
	doc, _ := xmltree.ParseString(hospitalXML)
	sys, err := core.Host(doc, scs, core.SchemeOpt, []byte("dedup-test"))
	if err != nil {
		t.Fatalf("Host: %v", err)
	}
	svc := NewService()
	var dropNext atomic.Bool
	mux := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/db/hospital/update" && dropNext.CompareAndSwap(true, false) {
			// Let the service apply the update, then lose the ack.
			rec := &bufferedResponse{header: http.Header{}, code: http.StatusOK}
			svc.ServeHTTP(rec, r)
			http.Error(w, "injected: ack lost", http.StatusServiceUnavailable)
			return
		}
		svc.ServeHTTP(w, r)
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()
	cl := Dial(ts.URL, "hospital").
		WithHTTPClient(ts.Client()).
		WithRetry(RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, Multiplier: 2})
	if err := cl.Upload(context.Background(), sys.HostedDB); err != nil {
		t.Fatalf("Upload: %v", err)
	}
	sys.UseBackend(cl)

	dropNext.Store(true)
	n, err := sys.UpdateLeafValues("//patient[pname='Matt']//disease", "cholera")
	if err != nil {
		t.Fatalf("update through lost ack: %v", err)
	}
	if n != 1 {
		t.Fatalf("updated %d values", n)
	}
	if got := svc.DedupHits(); got != 1 {
		t.Errorf("dedup hits = %d, want 1 (retry must be answered from the table)", got)
	}
	nodes, _, _, err := sys.Query("//patient[.//disease='cholera']/pname")
	if err != nil {
		t.Fatalf("post-update query: %v", err)
	}
	if len(nodes) != 1 || nodes[0].LeafValue() != "Matt" {
		t.Errorf("state after deduplicated retry: %v", core.ResultStrings(nodes))
	}
}

// TestBreakerTripHalfOpenRecovery walks the breaker through its full
// life cycle: consecutive failures trip it, while open the client
// fails fast without touching the service, and after the cooldown a
// /healthz probe closes it again.
func TestBreakerTripHalfOpenRecovery(t *testing.T) {
	doc, _ := xmltree.ParseString(hospitalXML)
	sys, err := core.Host(doc, scs, core.SchemeOpt, []byte("breaker-test"))
	if err != nil {
		t.Fatalf("Host: %v", err)
	}
	svc := NewService()
	var failing atomic.Bool
	var hits, healthProbes atomic.Int32
	mux := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if failing.Load() {
			hits.Add(1)
			http.Error(w, "injected outage", http.StatusServiceUnavailable)
			return
		}
		if r.URL.Path == "/healthz" {
			healthProbes.Add(1)
		}
		svc.ServeHTTP(w, r)
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()
	cl := Dial(ts.URL, "hospital").
		WithHTTPClient(ts.Client()).
		WithRetry(NoRetry).
		WithBreaker(BreakerConfig{FailureThreshold: 3, Cooldown: 30 * time.Millisecond, ProbeTimeout: time.Second})
	if err := cl.Upload(context.Background(), sys.HostedDB); err != nil {
		t.Fatalf("Upload: %v", err)
	}
	sys.UseBackend(cl)

	// Healthy baseline.
	if _, _, _, err := sys.Query("//patient/pname"); err != nil {
		t.Fatalf("baseline query: %v", err)
	}

	// Outage: three consecutive failures trip the breaker.
	failing.Store(true)
	for i := 0; i < 3; i++ {
		_, _, _, err := sys.Query("//patient/pname")
		var se *StatusError
		if !errors.As(err, &se) || se.Code != http.StatusServiceUnavailable {
			t.Fatalf("outage query %d: want 503 StatusError, got %v", i, err)
		}
	}
	before := hits.Load()
	if _, _, _, err := sys.Query("//patient/pname"); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("tripped breaker: want ErrCircuitOpen, got %v", err)
	}
	if hits.Load() != before {
		t.Errorf("open breaker still sent %d requests to the dead service", hits.Load()-before)
	}

	// Recovery: heal the service, wait out the cooldown; the next
	// call must probe /healthz, close the breaker and succeed.
	failing.Store(false)
	time.Sleep(40 * time.Millisecond)
	nodes, _, _, err := sys.Query("//patient/pname")
	if err != nil {
		t.Fatalf("post-recovery query: %v", err)
	}
	if len(nodes) != 2 {
		t.Errorf("post-recovery results: %v", core.ResultStrings(nodes))
	}
	if healthProbes.Load() == 0 {
		t.Errorf("breaker recovered without a /healthz probe")
	}
}

// TestBreakerStaysOpenWhileUnhealthy: a failed probe re-opens the
// breaker and restarts the cooldown.
func TestBreakerStaysOpenWhileUnhealthy(t *testing.T) {
	var hits atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		http.Error(w, "down", http.StatusServiceUnavailable)
	}))
	defer ts.Close()
	cl := Dial(ts.URL, "db").
		WithHTTPClient(ts.Client()).
		WithRetry(NoRetry).
		WithBreaker(BreakerConfig{FailureThreshold: 2, Cooldown: 20 * time.Millisecond, ProbeTimeout: time.Second})
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		if _, _, err := cl.Execute(ctx, &wire.Query{}); err == nil {
			t.Fatal("dead service succeeded")
		}
	}
	if _, _, err := cl.Execute(ctx, &wire.Query{}); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("want ErrCircuitOpen, got %v", err)
	}
	time.Sleep(30 * time.Millisecond)
	// Cooldown elapsed but the service is still down: the probe
	// fails and the call is rejected without reaching the query
	// endpoint.
	before := hits.Load()
	if _, _, err := cl.Execute(ctx, &wire.Query{}); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("want ErrCircuitOpen after failed probe, got %v", err)
	}
	if hits.Load() != before+1 { // exactly the probe, not the query
		t.Errorf("failed probe cost %d requests, want 1", hits.Load()-before)
	}
}

// TestDeadlineExceededOnHungServer proves a hung server cannot block
// the client past its deadline: the context bound is honored and
// surfaces as context.DeadlineExceeded.
func TestDeadlineExceededOnHungServer(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Drain the body so the server notices the client hanging up
		// (net/http only watches the connection once the body is
		// consumed), then hang until the client gives up.
		io.Copy(io.Discard, r.Body)
		<-r.Context().Done()
	}))
	defer ts.Close()
	cl := Dial(ts.URL, "db").
		WithHTTPClient(ts.Client()).
		WithRetry(NoRetry).
		WithBreaker(BreakerConfig{})
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, _, err := cl.Execute(ctx, &wire.Query{})
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("hung server blocked the client for %v past a 100ms deadline", elapsed)
	}
}

// smallWriteBufListener shrinks the kernel write buffer of every
// accepted connection, so a stalled reader backs up onto the server's
// write path after a few KiB instead of after megabytes of kernel
// buffering — making the slow-loris scenario reproducible at test
// sizes.
type smallWriteBufListener struct{ net.Listener }

func (l smallWriteBufListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if tc, ok := c.(*net.TCPConn); err == nil && ok {
		tc.SetWriteBuffer(4 << 10)
	}
	return c, err
}

// TestSlowLorisStreamCutOff: a client that asks a query and then stops
// draining the SXS1 answer stream must not pin a worker —
// the per-flush write deadline trips, the stream encoder unwinds on
// the sticky write error, and the handler returns within the deadline
// bound instead of blocking until the peer goes away.
func TestSlowLorisStreamCutOff(t *testing.T) {
	// A document big enough that the streamed answer cannot fit in the
	// (deliberately shrunken) socket buffers.
	var b strings.Builder
	b.WriteString("<hospital>")
	filler := strings.Repeat("flu", 700) // ~2 KiB per patient
	for i := 0; i < 128; i++ {
		fmt.Fprintf(&b, "<patient><pname>P%d</pname><SSN>%d</SSN><treat><disease>%s%d</disease><doctor>D%d</doctor></treat><age>%d</age></patient>",
			i, 100000+i, filler, i, i, 20+i%60)
	}
	b.WriteString("</hospital>")
	doc, err := xmltree.ParseString(b.String())
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	sys, err := core.Host(doc, []string{"//patient:(/pname, /SSN)", "//treat:(/disease, /doctor)"},
		core.SchemeOpt, []byte("loris-test"))
	if err != nil {
		t.Fatalf("Host: %v", err)
	}

	const writeTimeout = 150 * time.Millisecond
	svc := NewService().WithWriteTimeout(writeTimeout)
	var frameMu sync.Mutex
	var frame []byte
	handlerDone := make(chan struct{})
	wrapper := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		loris := r.Header.Get("X-Loris") != ""
		if strings.HasSuffix(r.URL.Path, "/query") && !loris {
			data, _ := io.ReadAll(r.Body)
			r.Body.Close()
			frameMu.Lock()
			frame = append(frame[:0], data...)
			frameMu.Unlock()
			r.Body = io.NopCloser(bytes.NewReader(data))
		}
		svc.ServeHTTP(w, r)
		if loris {
			close(handlerDone)
		}
	})
	ts := httptest.NewUnstartedServer(wrapper)
	ts.Listener = smallWriteBufListener{ts.Listener}
	ts.Start()
	t.Cleanup(ts.Close)

	cl := Dial(ts.URL, "big").WithHTTPClient(ts.Client())
	if err := cl.Upload(context.Background(), sys.HostedDB); err != nil {
		t.Fatalf("Upload: %v", err)
	}
	sys.UseBackend(cl)
	// One healthy streamed run: captures the query frame and proves
	// the answer is big enough that a stalled reader must block the
	// server's writes (otherwise this test is vacuous).
	_, _, tm, err := sys.Query("//patient")
	if err != nil {
		t.Fatalf("healthy streamed query: %v", err)
	}
	if !tm.Streamed {
		t.Fatalf("healthy query did not stream")
	}
	if tm.AnswerBytes < 128<<10 {
		t.Fatalf("answer only %d bytes; too small to overwhelm socket buffers", tm.AnswerBytes)
	}
	frameMu.Lock()
	raw := append([]byte(nil), frame...)
	frameMu.Unlock()
	if len(raw) == 0 {
		t.Fatal("no query frame captured")
	}

	// The slow loris: send the same query over a raw connection with a
	// tiny receive buffer, read a sip of the stream, then stall with
	// the connection held open.
	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetReadBuffer(4 << 10)
	}
	fmt.Fprintf(conn, "POST /db/big/query HTTP/1.1\r\nHost: loris\r\nX-Loris: 1\r\nContent-Length: %d\r\n\r\n",
		len(raw))
	if _, err := conn.Write(raw); err != nil {
		t.Fatalf("write frame: %v", err)
	}
	sip := make([]byte, 1024)
	if _, err := io.ReadFull(conn, sip); err != nil {
		t.Fatalf("read first KiB of stream: %v", err)
	}
	stall := time.Now()
	// ...and never read again. The handler must come back on its own.
	select {
	case <-handlerDone:
		if el := time.Since(stall); el > 10*writeTimeout {
			t.Errorf("worker pinned %v past the stall (write deadline %v)", el, writeTimeout)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("slow reader pinned the stream worker; write deadline never freed it")
	}
}

// TestPerAttemptTimeoutRetries: a per-attempt timeout on a hung
// server burns through the retry budget (each attempt is cut off)
// and still honors the overall deadline.
func TestPerAttemptTimeoutRetries(t *testing.T) {
	var attempts atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		attempts.Add(1)
		io.Copy(io.Discard, r.Body)
		<-r.Context().Done()
	}))
	defer ts.Close()
	cl := Dial(ts.URL, "db").
		WithHTTPClient(ts.Client()).
		WithTimeout(30 * time.Millisecond).
		WithRetry(RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, Multiplier: 2}).
		WithBreaker(BreakerConfig{})
	start := time.Now()
	_, _, err := cl.Execute(context.Background(), &wire.Query{})
	if err == nil {
		t.Fatal("hung server succeeded")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want per-attempt DeadlineExceeded, got %v", err)
	}
	if got := attempts.Load(); got != 3 {
		t.Errorf("per-attempt timeout drove %d attempts, want 3", got)
	}
	if e := time.Since(start); e > 2*time.Second {
		t.Errorf("three 30ms attempts took %v", e)
	}
}

// faultyQuerySystem uploads through a clean client, then swaps in a
// transport that injects the given fault on every response — for the
// deterministic corruption/truncation tests.
func faultyQuerySystem(t *testing.T, clientCfg FaultConfig) *core.System {
	t.Helper()
	doc, err := xmltree.ParseString(hospitalXML)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	sys, err := core.Host(doc, scs, core.SchemeOpt, []byte("fault-test"))
	if err != nil {
		t.Fatalf("Host: %v", err)
	}
	ts := httptest.NewServer(NewService())
	t.Cleanup(ts.Close)
	clean := Dial(ts.URL, "hospital").WithHTTPClient(ts.Client())
	if err := clean.Upload(context.Background(), sys.HostedDB); err != nil {
		t.Fatalf("Upload: %v", err)
	}
	cl := Dial(ts.URL, "hospital").
		WithHTTPClient(&http.Client{Transport: NewFaultRoundTripper(ts.Client().Transport, clientCfg)}).
		WithRetry(NoRetry).
		WithBreaker(BreakerConfig{})
	sys.UseBackend(cl)
	return sys
}

// TestChecksumDetectsCorruption: a response body damaged in flight
// is caught by the integrity checksum, never parsed into an answer —
// a query's and an aggregate's probe alike, both in the SXS1 trailer.
func TestChecksumDetectsCorruption(t *testing.T) {
	sys := faultyQuerySystem(t, FaultConfig{Seed: 6, CorruptRate: 1})
	_, _, _, err := sys.Query("//patient/pname")
	if !errors.Is(err, ErrChecksum) {
		t.Fatalf("want ErrChecksum for corrupted body, got %v", err)
	}
	if _, _, err := sys.AggregateMinMax("//insurance/policy", false); !errors.Is(err, ErrChecksum) {
		t.Fatalf("want ErrChecksum for a corrupted probe answer, got %v", err)
	}
}

// TestTruncationSurfacesTornRead: a body cut mid-flight surfaces as
// a typed torn-read error, never a partial answer.
func TestTruncationSurfacesTornRead(t *testing.T) {
	sys := faultyQuerySystem(t, FaultConfig{Seed: 8, TruncateRate: 1})
	_, _, _, err := sys.Query("//patient/pname")
	if err == nil {
		t.Fatal("truncated response parsed as a full answer")
	}
	if !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, ErrChecksum) {
		t.Fatalf("want torn-read error, got %T: %v", err, err)
	}
}

// TestRetryRecoversFromTransientResets: N connection-level failures
// followed by a healthy transport must succeed within the retry
// budget, and fail without one.
func TestRetryRecoversFromTransientResets(t *testing.T) {
	doc, _ := xmltree.ParseString(hospitalXML)
	sys, err := core.Host(doc, scs, core.SchemeOpt, []byte("retry-test"))
	if err != nil {
		t.Fatalf("Host: %v", err)
	}
	ts := httptest.NewServer(NewService())
	defer ts.Close()

	mk := func(failures int, p RetryPolicy) *Client {
		frt := &failNTransport{base: ts.Client().Transport}
		frt.remaining.Store(int32(failures))
		return Dial(ts.URL, "hospital").
			WithHTTPClient(&http.Client{Transport: frt}).
			WithRetry(p).
			WithBreaker(BreakerConfig{})
	}

	// Two resets, three attempts: succeeds.
	cl := mk(2, RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, Multiplier: 2})
	if err := cl.Upload(context.Background(), sys.HostedDB); err != nil {
		t.Fatalf("upload with retries: %v", err)
	}

	// Two resets, no retries: fails with a transport error.
	cl = mk(2, NoRetry)
	err = cl.ApplyUpdateBatch(context.Background(), &wire.UpdateBatch{Updates: []*wire.Update{{}}})
	var ue *url.Error
	if !errors.As(err, &ue) {
		t.Fatalf("want transport error without retries, got %v", err)
	}
}

// failNTransport fails the first N round trips at connection level.
type failNTransport struct {
	base      http.RoundTripper
	remaining atomic.Int32
}

func (f *failNTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if f.remaining.Add(-1) >= 0 {
		if req.Body != nil {
			io.Copy(io.Discard, req.Body)
			req.Body.Close()
		}
		return nil, errInjectedReset
	}
	return f.base.RoundTrip(req)
}

// TestStatusErrorShape: a 4xx comes back as a *StatusError carrying
// the code and (capped) body, and is not retried.
func TestStatusErrorShape(t *testing.T) {
	var hits atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		http.Error(w, "no such database", http.StatusNotFound)
	}))
	defer ts.Close()
	cl := Dial(ts.URL, "ghost").
		WithHTTPClient(ts.Client()).
		WithRetry(RetryPolicy{MaxAttempts: 4, BaseDelay: time.Millisecond}).
		WithBreaker(BreakerConfig{})
	_, _, err := cl.Execute(context.Background(), &wire.Query{})
	var se *StatusError
	if !errors.As(err, &se) {
		t.Fatalf("want *StatusError, got %T: %v", err, err)
	}
	if se.Code != http.StatusNotFound || se.Body != "no such database" {
		t.Errorf("StatusError = %+v", se)
	}
	if se.Temporary() {
		t.Errorf("404 classified as temporary")
	}
	if hits.Load() != 1 {
		t.Errorf("permanent 404 was attempted %d times, want 1", hits.Load())
	}
}
