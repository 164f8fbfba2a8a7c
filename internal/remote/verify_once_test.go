package remote

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/authtree"
	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/wire"
	"repro/internal/xmltree"
)

// countingVerifier stands between the transport and the owner's ring.
// It counts the checks the transport asks for, and — when spent is
// set — strips the proof from every answer the ring accepted, so that
// any LATER pass over it can only fail: a query or aggregate that still
// succeeds made no second pass.
type countingVerifier struct {
	wire.ContextVerifier
	pinned, bare atomic.Int32
	spent        bool
}

func (c *countingVerifier) VerifyAnswerContext(ctx context.Context, ans *wire.Answer) error {
	c.pinned.Add(1)
	err := c.ContextVerifier.VerifyAnswerContext(ctx, ans)
	if err == nil && c.spent {
		ans.Proof = nil
	}
	return err
}

func (c *countingVerifier) VerifyAnswer(ans *wire.Answer) error {
	c.bare.Add(1)
	return c.ContextVerifier.VerifyAnswer(ans)
}

// replayProxy fronts a Service: it can fail the next N query requests
// with 503, record one query response as sent (status, headers, body),
// and later answer queries with that recording.
type replayProxy struct {
	svc http.Handler

	mu        sync.Mutex
	queries   int
	failNext  int
	record    bool
	replaying bool
	hdr       http.Header
	body      bytes.Buffer
}

type teeWriter struct {
	http.ResponseWriter
	buf *bytes.Buffer
}

func (t *teeWriter) Write(p []byte) (int, error) { t.buf.Write(p); return t.ResponseWriter.Write(p) }
func (t *teeWriter) Flush()                      { t.ResponseWriter.(http.Flusher).Flush() }

func (p *replayProxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost || r.URL.Path != "/db/hospital/query" {
		p.svc.ServeHTTP(w, r)
		return
	}
	p.mu.Lock()
	p.queries++
	fail, record, replaying := p.failNext > 0, p.record, p.replaying
	if fail {
		p.failNext--
	}
	p.record = false
	p.mu.Unlock()
	switch {
	case fail:
		http.Error(w, "try again", http.StatusServiceUnavailable)
	case replaying:
		for k, v := range p.hdr {
			w.Header()[k] = v
		}
		w.Write(p.body.Bytes())
	case record:
		p.svc.ServeHTTP(&teeWriter{ResponseWriter: w, buf: &p.body}, r)
		p.hdr = w.Header().Clone()
	default:
		p.svc.ServeHTTP(w, r)
	}
}

func (p *replayProxy) set(f func(*replayProxy)) { p.mu.Lock(); f(p); p.mu.Unlock() }
func (p *replayProxy) seen() int                { p.mu.Lock(); defer p.mu.Unlock(); return p.queries }

// ringChecks counts the answer passes a system's ring has made.
func ringChecks(sys *core.System) uint64 {
	return sys.Verifier().(interface{ AnswerChecks() uint64 }).AnswerChecks()
}

// TestAnswerVerifiedOncePerQuery: with the owner's ring installed in
// the transport (WithVerifier(sys.Verifier()), as every integrity-on
// dial does), a query's answer is checked once — inside Client.do, at
// the floor the read pinned — and core does not check it again; where
// the transport did not check for this read (an in-process backend, a
// transport holding another system's ring), core still does. An
// update's read half is held to the same rule.
func TestAnswerVerifiedOncePerQuery(t *testing.T) {
	const q = "//patient[.//disease='leukemia']/pname"
	host := func(t *testing.T) *core.System {
		doc, _ := xmltree.ParseString(hospitalXML)
		sys, err := core.Host(doc, scs, core.SchemeOpt, []byte("verified-once"))
		if err != nil {
			t.Fatalf("Host: %v", err)
		}
		if err := sys.EnableIntegrity(); err != nil {
			t.Fatalf("EnableIntegrity: %v", err)
		}
		return sys
	}
	mustMatt := func(t *testing.T, sys *core.System) core.Timings {
		t.Helper()
		before := ringChecks(sys)
		nodes, _, tm, err := sys.Query(q)
		if err != nil {
			t.Fatalf("query: %v", err)
		}
		if len(nodes) != 1 || nodes[0].LeafValue() != "Matt" {
			t.Fatalf("answer %v", core.ResultStrings(nodes))
		}
		if got := ringChecks(sys) - before; got != 1 {
			t.Fatalf("one query answer took %d passes of the owner's ring, want 1", got)
		}
		return tm
	}

	t.Run("stream", func(t *testing.T) {
		sys := host(t)
		proxy := &replayProxy{svc: NewService()}
		ts := httptest.NewServer(proxy)
		defer ts.Close()
		cv := &countingVerifier{ContextVerifier: sys.Verifier().(wire.ContextVerifier), spent: true}
		cl := Dial(ts.URL, "hospital").WithHTTPClient(ts.Client()).
			WithRetry(RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, Multiplier: 2}).
			WithBreaker(BreakerConfig{FailureThreshold: 100, Cooldown: time.Hour}).
			WithVerifier(cv)
		if err := cl.Upload(context.Background(), sys.HostedDB); err != nil {
			t.Fatalf("Upload: %v", err)
		}
		sys.UseBackend(cl)

		// One query, one pass: the transport's, with the read's pin.
		// The accepted answer comes back with its proof spent, so a
		// second pass in core would have rejected it.
		proxy.set(func(p *replayProxy) { p.record = true })
		tm := mustMatt(t, sys)
		if got, bare := cv.pinned.Load(), cv.bare.Load(); got != 1 || bare != 0 {
			t.Fatalf("one query: %d pinned + %d unpinned transport checks, want 1 + 0", got, bare)
		}
		if !tm.Streamed {
			t.Fatal("answer was not streamed")
		}
		if tm.Verify <= 0 || tm.Total() != tm.ClientTranslate+tm.ServerExec+tm.Verify+tm.Transmit+tm.ClientDecrypt+tm.ClientPost {
			t.Errorf("Timings.Verify = %v, Total %v: the accepted pass is not reported", tm.Verify, tm.Total())
		}

		// A retry inside Client.do verifies the attempt that finally
		// produced an answer — once.
		proxy.set(func(p *replayProxy) { p.failNext = 2 })
		before, wire0 := cv.pinned.Load(), proxy.seen()
		mustMatt(t, sys)
		if got, sent := cv.pinned.Load()-before, proxy.seen()-wire0; got != 1 || sent != 3 {
			t.Errorf("two refused attempts then an answer: %d checks over %d wire attempts, want 1 over 3", got, sent)
		}

		// The freshness attack of attack.TestTamperRollbackReplay,
		// over the wire: the pre-update response recorded above,
		// replayed byte for byte after the owner's root advanced.
		// The update's own read half is a transport check with no
		// read pinned behind it (it runs under the owner's lock).
		if _, err := sys.UpdateLeafValues("//patient[pname='Matt']//disease", "cholera"); err != nil {
			t.Fatalf("update: %v", err)
		}
		if cv.bare.Load() != 0 {
			t.Errorf("%d checks bypassed the context-carrying call", cv.bare.Load())
		}
		proxy.set(func(p *replayProxy) { p.replaying = true })
		wire0 = proxy.seen()
		_, _, _, err := sys.Query(q)
		if !errors.Is(err, authtree.ErrTampered) {
			t.Fatalf("replayed pre-update answer: %v, want ErrTampered", err)
		}
		if sent := proxy.seen() - wire0; sent != 1 {
			t.Errorf("replayed answer cost %d wire attempts, want 1 (tampering is not retried)", sent)
		}
		// Rejected inside the attempt, at the read's floor: the
		// breaker is open. (A transport check without the floor
		// accepts this answer against the retired root, and the
		// breaker never hears of it.)
		if _, _, _, err := sys.Query(q); !errors.Is(err, ErrCircuitOpen) {
			t.Errorf("query after the replay: %v, want ErrCircuitOpen", err)
		}
	})

	// A transport that checked against ANOTHER system's ring — here a
	// twin over the same hosted bytes, so the same commitment, as the
	// benchmark's second owners are — has not checked for this read:
	// its pass neither saw this read's pin nor reports to it. Core makes
	// its own, which the spent proof fails.
	t.Run("another ring", func(t *testing.T) {
		sys := host(t)
		twin := &core.System{Client: sys.Client, Server: sys.Server, Link: sys.Link, Scheme: sys.Scheme, HostedDB: sys.HostedDB}
		if err := twin.EnableIntegrity(); err != nil {
			t.Fatalf("twin EnableIntegrity: %v", err)
		}
		ts := httptest.NewServer(NewService())
		defer ts.Close()
		cv := &countingVerifier{ContextVerifier: twin.Verifier().(wire.ContextVerifier), spent: true}
		cl := Dial(ts.URL, "hospital").WithHTTPClient(ts.Client()).WithVerifier(cv)
		if err := cl.Upload(context.Background(), sys.HostedDB); err != nil {
			t.Fatalf("Upload: %v", err)
		}
		sys.UseBackend(cl)
		if _, _, _, err := sys.Query(q); !errors.Is(err, authtree.ErrTampered) {
			t.Fatalf("answer checked only by another ring, proof spent: %v, want core's own pass to reject it", err)
		}
		cv.spent = false
		if tm := mustMatt(t, sys); tm.Verify <= 0 || cv.pinned.Load() != 2 {
			t.Errorf("Verify = %v after %d transport checks: core's own pass is not the one reported", tm.Verify, cv.pinned.Load())
		}
	})

	// An update's read half: through a verifying transport the
	// transport's pass is the one (the spent proof would fail a second),
	// and through a plain one core makes it.
	t.Run("update read", func(t *testing.T) {
		for _, verifying := range []bool{true, false} {
			sys := host(t)
			ts := httptest.NewServer(NewService())
			defer ts.Close()
			cl := Dial(ts.URL, "hospital").WithHTTPClient(ts.Client())
			cv := &countingVerifier{ContextVerifier: sys.Verifier().(wire.ContextVerifier), spent: true}
			if verifying {
				cl.WithVerifier(cv)
			}
			if err := cl.Upload(context.Background(), sys.HostedDB); err != nil {
				t.Fatalf("Upload: %v", err)
			}
			sys.UseBackend(cl)
			before := ringChecks(sys)
			if n, err := sys.UpdateLeafValues("//patient[pname='Matt']//disease", "cholera"); err != nil || n == 0 {
				t.Fatalf("verifying transport %v: update changed %d values: %v", verifying, n, err)
			}
			if got := ringChecks(sys) - before; got != 1 {
				t.Errorf("verifying transport %v: the update read took %d passes of the owner's ring, want 1", verifying, got)
			}
			want := int32(0)
			if verifying {
				want = 1
			}
			if pinned, bare := cv.pinned.Load(), cv.bare.Load(); pinned != want || bare != 0 {
				t.Errorf("verifying transport %v: %d pinned + %d unpinned transport checks, want %d + 0", verifying, pinned, bare, want)
			}
		}
	})

	// An in-process backend verifies nothing on the way: core's pass is
	// the one, it is reported, and it is enforced.
	t.Run("local", func(t *testing.T) {
		sys := host(t)
		if tm := mustMatt(t, sys); tm.Verify <= 0 || tm.ServerExec <= 0 {
			t.Errorf("Verify = %v, ServerExec = %v", tm.Verify, tm.ServerExec)
		}
		sys.UseBackend(proofless{sys.Server})
		if _, _, _, err := sys.Query(q); !errors.Is(err, authtree.ErrTampered) {
			t.Fatalf("proofless answer from an in-process backend: %v, want ErrTampered", err)
		}
	})
}

// proofless is an in-process backend that drops every answer's proof.
type proofless struct{ core.Backend }

func (p proofless) Execute(ctx context.Context, q *wire.Query) (*wire.Answer, *wire.StreamStats, error) {
	a, st, err := p.Backend.Execute(ctx, q)
	if err == nil {
		cp := *a
		cp.Proof = nil
		a = &cp
	}
	return a, st, err
}

// TestExtremeVerifiedOncePerAggregate: a verified aggregate over a
// verifying remote client checks its probe's answer once — inside
// Client.do, at the floor the read pinned, with the probe's own check
// after the ring accepted it — and core does not check it again: the
// ring makes one pass per aggregate, and the proof the transport spent
// would fail a second. Over an in-process backend, core's own pass is
// the one.
func TestExtremeVerifiedOncePerAggregate(t *testing.T) {
	doc, _ := xmltree.ParseString(hospitalXML)
	sys, err := core.Host(doc, scs, core.SchemeOpt, []byte("extreme-once"))
	if err != nil {
		t.Fatalf("Host: %v", err)
	}
	if err := sys.EnableIntegrity(); err != nil {
		t.Fatalf("EnableIntegrity: %v", err)
	}
	aggregate := func(t *testing.T, max bool, want string) {
		t.Helper()
		before := ringChecks(sys)
		got, tm, err := sys.AggregateMinMax("//insurance/policy", max)
		if err != nil {
			t.Fatalf("aggregate max=%v: %v", max, err)
		}
		if got != want || tm.BlocksShipped != 1 {
			t.Fatalf("aggregate max=%v = %q over %d blocks, want %q from the index probe", max, got, tm.BlocksShipped, want)
		}
		if n := ringChecks(sys) - before; n != 1 {
			t.Fatalf("aggregate max=%v took %d passes of the owner's ring, want 1", max, n)
		}
		if tm.Verify <= 0 {
			t.Errorf("aggregate max=%v: Timings.Verify = %v, the accepted pass is not reported", max, tm.Verify)
		}
	}

	aggregate(t, false, "26544") // in process: core's pass

	ts := httptest.NewServer(NewService())
	defer ts.Close()
	cv := &countingVerifier{ContextVerifier: sys.Verifier().(wire.ContextVerifier), spent: true}
	cl := Dial(ts.URL, "hospital").WithHTTPClient(ts.Client()).WithVerifier(cv)
	if err := cl.Upload(context.Background(), sys.HostedDB); err != nil {
		t.Fatalf("Upload: %v", err)
	}
	sys.UseBackend(cl)
	aggregate(t, false, "26544")
	aggregate(t, true, "34221")
	if pinned, bare := cv.pinned.Load(), cv.bare.Load(); pinned != 2 || bare != 0 {
		t.Errorf("two aggregates: %d pinned + %d unpinned transport checks, want 2 + 0", pinned, bare)
	}
}

// TestUpdateReadVerified: the read half of an update is an answer the
// owner acts on, so a forged one must stop the update with ErrTampered
// even where the transport verifies nothing: in process, and over a
// remote client dialled without a verifier. The server swaps every
// adjacent pair of blocks; each still decrypts, so an unverified read
// would silently compute the update from the wrong values.
func TestUpdateReadVerified(t *testing.T) {
	const path = "//patient[pname='Matt']/treat[1]/disease"
	for _, backend := range []string{"local", "remote without verifier"} {
		t.Run(backend, func(t *testing.T) {
			doc, _ := xmltree.ParseString(hospitalXML)
			sys, err := core.Host(doc, scs, core.SchemeOpt, []byte("update-read-verified"))
			if err != nil {
				t.Fatalf("Host: %v", err)
			}
			if err := sys.EnableIntegrity(); err != nil {
				t.Fatalf("EnableIntegrity: %v", err)
			}
			forged := *sys.HostedDB
			forged.Blocks = append([][]byte(nil), forged.Blocks...)
			for i := 0; i+1 < len(forged.Blocks); i += 2 {
				forged.Blocks[i], forged.Blocks[i+1] = forged.Blocks[i+1], forged.Blocks[i]
			}
			if backend == "local" {
				sys.UseBackend(core.Local{S: server.New(&forged)})
			} else {
				svc := NewService()
				if err := RegisterLocal(svc, "hospital", &forged); err != nil {
					t.Fatalf("RegisterLocal: %v", err)
				}
				ts := httptest.NewServer(svc)
				defer ts.Close()
				sys.UseBackend(Dial(ts.URL, "hospital").WithHTTPClient(ts.Client()))
			}

			if _, _, _, err := sys.Query(path); !errors.Is(err, authtree.ErrTampered) {
				t.Fatalf("query over forged blocks: %v, want ErrTampered", err)
			}
			if n, err := sys.UpdateLeafValues(path, "cholera"); !errors.Is(err, authtree.ErrTampered) {
				t.Fatalf("update over forged blocks: changed %d values, err %v; want ErrTampered", n, err)
			}
		})
	}
}
