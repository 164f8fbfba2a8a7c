package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/remote"
	"repro/internal/wire"
)

// lossyUpdateBackend wraps another Backend and fails the next ApplyUpdateBatch
// with failErr; when applyFirst is set the update still reaches the
// inner backend before the error — modelling an acknowledgment lost
// after the server durably applied — and the error states the outcome
// in doubt, as a transport must.
type lossyUpdateBackend struct {
	Backend
	failErr    error
	applyFirst bool
	sent       int
}

func (f *lossyUpdateBackend) ApplyUpdateBatch(ctx context.Context, u *wire.UpdateBatch) error {
	f.sent++
	if f.failErr != nil {
		err := f.failErr
		f.failErr = nil
		if f.applyFirst {
			if aerr := f.Backend.ApplyUpdateBatch(ctx, u); aerr != nil {
				return aerr
			}
			return fmt.Errorf("%w (%w)", err, wire.ErrUpdateInDoubt)
		}
		return err
	}
	return f.Backend.ApplyUpdateBatch(ctx, u)
}

// definiteErr mimics a remote 4xx: it does not wrap
// wire.ErrUpdateInDoubt, so the failure is a definite rejection.
type definiteErr struct{}

func (definiteErr) Error() string { return "update rejected" }

// TestAmbiguousUpdateStashesAndReconciles: a failure the backend
// states in doubt, after the server applied, leaves the update
// pending; verified queries refuse until Reconcile resends it under
// the same request ID, after which owner and server agree on the
// post-update state.
func TestAmbiguousUpdateStashesAndReconciles(t *testing.T) {
	sys, _ := hostForUpdate(t)
	if err := sys.EnableIntegrity(); err != nil {
		t.Fatal(err)
	}
	fb := &lossyUpdateBackend{Backend: sys.Server, failErr: errors.New("connection reset"), applyFirst: true}
	sys.UseBackend(fb)

	_, err := sys.UpdateLeafValues("//patient[pname='Matt']/treat[1]/disease", "cholera")
	if !errors.Is(err, ErrUpdatePending) {
		t.Fatalf("ambiguous failure returned %v; want ErrUpdatePending", err)
	}
	if !sys.UpdatePending() {
		t.Fatal("no pending update after ambiguous failure")
	}
	// Verified queries refuse while the commitment may trail the
	// server.
	if _, _, _, err := sys.Query("//patient/pname"); !errors.Is(err, ErrUpdatePending) {
		t.Fatalf("verified query during pending = %v; want ErrUpdatePending", err)
	}
	// So do further updates.
	if _, err := sys.UpdateLeafValues("//patient[pname='Betty']/treat[1]/disease", "flu"); !errors.Is(err, ErrUpdatePending) {
		t.Fatalf("second update during pending = %v; want ErrUpdatePending", err)
	}

	n, err := sys.Reconcile(context.Background())
	if err != nil {
		t.Fatalf("Reconcile: %v", err)
	}
	if n != 1 {
		t.Fatalf("Reconcile reported %d edits, want 1", n)
	}
	if sys.UpdatePending() {
		t.Fatal("still pending after successful Reconcile")
	}
	if fb.sent != 2 {
		t.Fatalf("backend saw %d sends, want 2 (original + resend)", fb.sent)
	}
	got := queryValues(t, sys, "//patient[.//disease='cholera']/pname")
	if len(got) != 1 || got[0] != "Matt" {
		t.Errorf("reconciled update not visible: %v", got)
	}
}

// TestDefiniteRejectionDoesNotStash: a failure the backend reports as
// final (4xx-style) surfaces, leaves no pending state, and undoes the
// update's client table rewrites, with integrity off and on: the value
// query answers as before, its translation is byte-identical, and a
// retried update succeeds.
func TestDefiniteRejectionDoesNotStash(t *testing.T) {
	for _, integrity := range []bool{false, true} {
		sys, _ := hostForUpdate(t)
		if integrity {
			if err := sys.EnableIntegrity(); err != nil {
				t.Fatal(err)
			}
		}
		fb := &lossyUpdateBackend{Backend: sys.Server, failErr: definiteErr{}}
		sys.UseBackend(fb)
		const (
			target = "//patient[pname='Matt']/treat[1]/disease"
			probe  = "//patient[.//disease='leukemia']/pname"
		)
		before := translateFrames(t, sys, []string{probe})

		_, err := sys.UpdateLeafValues(target, "cholera")
		if err == nil || errors.Is(err, ErrUpdatePending) {
			t.Fatalf("integrity=%v: definite rejection returned %v", integrity, err)
		}
		if sys.UpdatePending() {
			t.Fatalf("integrity=%v: definite rejection left a pending update", integrity)
		}
		if _, _, _, err := sys.Query("//patient/pname"); err != nil {
			t.Fatalf("integrity=%v: query after definite rejection: %v", integrity, err)
		}
		if got := queryValues(t, sys, probe); len(got) != 1 || got[0] != "Matt" {
			t.Fatalf("integrity=%v: after rejection, %s = %v, want [Matt]", integrity, probe, got)
		}
		if after := translateFrames(t, sys, []string{probe}); !bytes.Equal(after[0], before[0]) {
			t.Fatalf("integrity=%v: translation of %s changed across the rejection", integrity, probe)
		}
		// Reconcile with nothing pending is a no-op.
		if n, err := sys.Reconcile(context.Background()); n != 0 || err != nil {
			t.Fatalf("integrity=%v: Reconcile with nothing pending = (%d, %v)", integrity, n, err)
		}
		if n, err := sys.UpdateLeafValues(target, "cholera"); err != nil || n != 1 {
			t.Fatalf("integrity=%v: retried update: n=%d err=%v", integrity, n, err)
		}
		if got := queryValues(t, sys, "//patient[.//disease='cholera']/pname"); len(got) != 1 || got[0] != "Matt" {
			t.Fatalf("integrity=%v: after retry, cholera on %v", integrity, got)
		}
	}
}

// rootCorrupter forwards every update batch with its tail root
// damaged, so the server's root check refuses it.
type rootCorrupter struct{ Backend }

func (r rootCorrupter) ApplyUpdateBatch(ctx context.Context, b *wire.UpdateBatch) error {
	cp := *b
	cp.Updates = append([]*wire.Update(nil), b.Updates...)
	tail := *cp.Updates[len(cp.Updates)-1]
	tail.NewRoot = bytes.Repeat([]byte{0xAB}, len(tail.NewRoot))
	cp.Updates[len(cp.Updates)-1] = &tail
	return r.Backend.ApplyUpdateBatch(ctx, &cp)
}

// TestLocalBackendFailsAtomically: the in-process backend reverts on
// failure and states it — its errors never wrap wire.ErrUpdateInDoubt,
// and a batch its server refuses wraps wire.ErrUpdateRejected —
// so a refused update unwinds the owner's tables, nothing is stashed,
// and the next update commits.
func TestLocalBackendFailsAtomically(t *testing.T) {
	sys, _ := hostForUpdate(t)
	if err := sys.EnableIntegrity(); err != nil {
		t.Fatal(err)
	}
	local := sys.Server.(Local)
	gen := local.S.Generation()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := local.ApplyUpdateBatch(ctx, &wire.UpdateBatch{Updates: []*wire.Update{{}}}); err == nil || errors.Is(err, wire.ErrUpdateInDoubt) {
		t.Fatalf("Local with an ended context = %v, want a definite failure", err)
	}
	sys.UseBackend(rootCorrupter{local})
	_, err := sys.UpdateLeafValues(mattFirstTreat, "cholera")
	if !errors.Is(err, wire.ErrUpdateRejected) || errors.Is(err, wire.ErrUpdateInDoubt) || errors.Is(err, ErrUpdatePending) {
		t.Fatalf("Local refusing a batch = %v, want wire.ErrUpdateRejected", err)
	}
	if sys.UpdatePending() {
		t.Fatal("a Local failure left a pending update")
	}
	if got := local.S.Generation(); got != gen {
		t.Fatalf("refused batch moved the generation %d -> %d", gen, got)
	}
	if got := queryValues(t, sys, "//patient[.//disease='leukemia']/pname"); len(got) != 1 || got[0] != "Matt" {
		t.Fatalf("after the refusal, leukemia on %v, want [Matt]", got)
	}
	sys.UseBackend(local)
	if n, err := sys.UpdateLeafValues(mattFirstTreat, "cholera"); err != nil || n != 1 {
		t.Fatalf("update after the refusal: n=%d err=%v", n, err)
	}
}

// Modes of ackFaultHandler for update requests.
const (
	ackPass           int32 = iota // serve normally
	ackHold                        // apply, then hold the ack until released
	ackDrop                        // apply, then close the connection unanswered
	ackRefuse                      // answer 504 without applying
	ackDropThenRefuse              // ackDrop once, then ackRefuse
)

// ackFaultHandler fronts a remote.Service and interferes with the
// acknowledgment of update requests after the service has applied
// them, so a test can end the caller's context, or lose the
// connection, while the frame is known to have landed.
type ackFaultHandler struct {
	svc     *remote.Service
	mode    atomic.Int32
	applied chan struct{} // one token per update applied under ackHold
	release chan struct{} // one token lets one held ack go out
}

func (h *ackFaultHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	mode := h.mode.Load()
	if r.Method != http.MethodPost || !strings.HasSuffix(r.URL.Path, "/update") || mode == ackPass {
		h.svc.ServeHTTP(w, r)
		return
	}
	if mode == ackRefuse {
		http.Error(w, "caller deadline already passed", http.StatusGatewayTimeout)
		return
	}
	rec := httptest.NewRecorder()
	h.svc.ServeHTTP(rec, r)
	if mode == ackDropThenRefuse {
		h.mode.Store(ackRefuse)
	}
	if mode == ackDrop || mode == ackDropThenRefuse {
		conn, _, err := w.(http.Hijacker).Hijack()
		if err == nil {
			conn.Close()
		}
		return
	}
	h.applied <- struct{}{}
	<-h.release
	for k, v := range rec.Header() {
		w.Header()[k] = v
	}
	w.WriteHeader(rec.Code)
	w.Write(rec.Body.Bytes())
}

// Over a remote backend, a context that ends or a connection that
// drops after the update frame reached the server leaves the outcome
// in doubt, and must never unwind the owner's tables: a cancelled
// leader's send still commits, a lost connection stashes the batch,
// and a Reconcile cancelled after its resend landed keeps it pending
// until a later Reconcile commits it.
func TestCancelAfterFrameLandsIsNotARejection(t *testing.T) {
	sys, _ := hostForUpdate(t)
	if err := sys.EnableIntegrity(); err != nil {
		t.Fatal(err)
	}
	h := &ackFaultHandler{svc: remote.NewService(), applied: make(chan struct{}, 1), release: make(chan struct{}, 1)}
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	t.Cleanup(func() { close(h.release) })
	cl := remote.Dial(ts.URL, "hospital").
		WithHTTPClient(ts.Client()).
		WithRetry(remote.NoRetry).
		WithVerifier(sys.Verifier())
	if err := cl.Upload(context.Background(), sys.HostedDB); err != nil {
		t.Fatal(err)
	}
	sys.UseBackend(cl)

	// The leader's caller gives up while its frame is on the server.
	h.mode.Store(ackHold)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := sys.UpdateLeafValuesContext(ctx, mattFirstTreat, "cholera")
		done <- err
	}()
	<-h.applied
	cancel()
	h.release <- struct{}{}
	if err := <-done; err != nil {
		t.Fatalf("update whose caller cancelled mid-send = %v, want its commit", err)
	}
	if got := queryValues(t, sys, "//patient[.//disease='cholera']/pname"); len(got) != 1 || got[0] != "Matt" {
		t.Fatalf("after the cancelled send, cholera on %v, want [Matt]", got)
	}

	// The connection drops after the server applied: pending.
	h.mode.Store(ackDrop)
	if _, err := sys.UpdateLeafValues(annPolicy, "88888"); !errors.Is(err, ErrUpdatePending) {
		t.Fatalf("update whose ack was lost = %v, want ErrUpdatePending", err)
	}

	// Reconcile's own caller gives up after the resend landed: still
	// pending, not unwound.
	h.mode.Store(ackHold)
	ctx, cancel = context.WithCancel(context.Background())
	go func() {
		_, err := sys.Reconcile(ctx)
		done <- err
	}()
	<-h.applied
	cancel()
	if err := <-done; !errors.Is(err, ErrUpdatePending) {
		t.Fatalf("Reconcile cancelled after its resend landed = %v, want ErrUpdatePending", err)
	}
	h.release <- struct{}{}
	if !sys.UpdatePending() {
		t.Fatal("a cancelled Reconcile unwound the pending update")
	}

	h.mode.Store(ackPass)
	if n, err := sys.Reconcile(context.Background()); err != nil || n != 1 {
		t.Fatalf("Reconcile: n=%d err=%v", n, err)
	}
	for q, want := range map[string]string{
		"//patient[.//policy>80000]/pname":      "Ann",
		"//patient[.//disease='cholera']/pname": "Matt",
	} {
		if got := queryValues(t, sys, q); len(got) != 1 || got[0] != want {
			t.Errorf("after Reconcile, %s = %v, want [%s]", q, got, want)
		}
	}
}

// TestInDoubtAttemptThenRefusalStaysPending: an update whose first
// attempt landed but lost its ack, and whose retry was then refused
// (504, before any commit), is in doubt, not rejected — the server
// holds the edit. The owner must keep its tables and stash the batch;
// Reconcile then commits it. Rolling the tables back on the last
// attempt's refusal would leave them behind the server: value queries
// silently miss with integrity off, and fail verification with it on.
// The same holds for a Reconcile whose resend applies nothing but
// says nothing about the first send: one whose context has already
// ended, one the open breaker stops, and one answered 504 — each keeps
// the update pending, and a later Reconcile commits it.
func TestInDoubtAttemptThenRefusalStaysPending(t *testing.T) {
	const cooldown = 200 * time.Millisecond
	for _, integrity := range []bool{false, true} {
		sys, _ := hostForUpdate(t)
		if integrity {
			if err := sys.EnableIntegrity(); err != nil {
				t.Fatal(err)
			}
		}
		h := &ackFaultHandler{svc: remote.NewService()}
		ts := httptest.NewServer(h)
		t.Cleanup(ts.Close)
		cl := remote.Dial(ts.URL, "hospital").
			WithHTTPClient(ts.Client()).
			WithRetry(remote.RetryPolicy{MaxAttempts: 2}).
			WithBreaker(remote.BreakerConfig{FailureThreshold: 1, Cooldown: cooldown})
		if integrity {
			cl.WithVerifier(sys.Verifier())
		}
		if err := cl.Upload(context.Background(), sys.HostedDB); err != nil {
			t.Fatal(err)
		}
		sys.UseBackend(cl)

		h.mode.Store(ackDropThenRefuse)
		if _, err := sys.UpdateLeafValues(mattFirstTreat, "cholera"); !errors.Is(err, ErrUpdatePending) {
			t.Fatalf("integrity=%v: landed attempt then a 504 = %v, want ErrUpdatePending", integrity, err)
		}
		if !sys.UpdatePending() {
			t.Fatalf("integrity=%v: no pending update", integrity)
		}

		// The failed update opened the breaker (threshold 1).
		_, err := sys.Reconcile(context.Background())
		if !errors.Is(err, remote.ErrCircuitOpen) || !errors.Is(err, ErrUpdatePending) {
			t.Fatalf("integrity=%v: Reconcile with the breaker open = %v, want ErrCircuitOpen and ErrUpdatePending", integrity, err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := sys.Reconcile(ctx); !errors.Is(err, context.Canceled) || !errors.Is(err, ErrUpdatePending) {
			t.Fatalf("integrity=%v: Reconcile with an ended context = %v, want ErrUpdatePending", integrity, err)
		}
		time.Sleep(cooldown + cooldown/2)
		if _, err := sys.Reconcile(context.Background()); !errors.Is(err, ErrUpdatePending) {
			t.Fatalf("integrity=%v: Reconcile answered 504 = %v, want ErrUpdatePending", integrity, err)
		}
		if !sys.UpdatePending() {
			t.Fatalf("integrity=%v: a failed Reconcile unwound the pending update", integrity)
		}

		time.Sleep(cooldown + cooldown/2)
		h.mode.Store(ackPass)
		if n, err := sys.Reconcile(context.Background()); err != nil || n != 1 {
			t.Fatalf("integrity=%v: Reconcile: n=%d err=%v", integrity, n, err)
		}
		if got := queryValues(t, sys, "//patient[.//disease='cholera']/pname"); len(got) != 1 || got[0] != "Matt" {
			t.Fatalf("integrity=%v: after Reconcile, cholera on %v, want [Matt]", integrity, got)
		}
	}
}

// strayBlock forwards every update batch with an extra member naming a
// block the server does not have, so the server refuses it whether or
// not the batch carries a root.
type strayBlock struct{ Backend }

func (r strayBlock) ApplyUpdateBatch(ctx context.Context, b *wire.UpdateBatch) error {
	cp := *b
	cp.Updates = append(append([]*wire.Update(nil), b.Updates...), &wire.Update{Blocks: []wire.BlockUpdate{{ID: -1}}})
	return r.Backend.ApplyUpdateBatch(ctx, &cp)
}

// TestRejectedResendUnwindsPending: the one failure on which Reconcile
// drops an in-doubt update is the server refusing the resend after its
// dedup lookup (wire.ErrUpdateRejected): it holds none of the batch.
// The owner's tables and commitment go back to the pre-update state,
// nothing stays pending, and the edit can be issued again.
func TestRejectedResendUnwindsPending(t *testing.T) {
	for _, integrity := range []bool{false, true} {
		sys, _ := hostForUpdate(t)
		if integrity {
			if err := sys.EnableIntegrity(); err != nil {
				t.Fatal(err)
			}
		}
		local := sys.Server.(Local)
		// The first send never reaches the server, but its outcome is
		// stated in doubt.
		sys.UseBackend(&lossyUpdateBackend{Backend: local, failErr: fmt.Errorf("connection reset (%w)", wire.ErrUpdateInDoubt)})
		if _, err := sys.UpdateLeafValues(mattFirstTreat, "cholera"); !errors.Is(err, ErrUpdatePending) {
			t.Fatalf("integrity=%v: in-doubt send = %v, want ErrUpdatePending", integrity, err)
		}
		sys.UseBackend(strayBlock{local})
		_, err := sys.Reconcile(context.Background())
		if !errors.Is(err, wire.ErrUpdateRejected) || errors.Is(err, ErrUpdatePending) {
			t.Fatalf("integrity=%v: refused resend = %v, want ErrUpdateRejected", integrity, err)
		}
		if sys.UpdatePending() {
			t.Fatalf("integrity=%v: a refused resend left the update pending", integrity)
		}
		if got := queryValues(t, sys, "//patient[.//disease='leukemia']/pname"); len(got) != 1 || got[0] != "Matt" {
			t.Fatalf("integrity=%v: after the refusal, leukemia on %v, want [Matt]", integrity, got)
		}
		sys.UseBackend(local)
		if n, err := sys.UpdateLeafValues(mattFirstTreat, "cholera"); err != nil || n != 1 {
			t.Fatalf("integrity=%v: update after the refusal: n=%d err=%v", integrity, n, err)
		}
		if got := queryValues(t, sys, "//patient[.//disease='cholera']/pname"); len(got) != 1 || got[0] != "Matt" {
			t.Fatalf("integrity=%v: after re-issue, cholera on %v, want [Matt]", integrity, got)
		}
	}
}
