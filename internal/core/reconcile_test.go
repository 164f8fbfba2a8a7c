package core

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/remote"
	"repro/internal/wire"
)

// lossyUpdateBackend wraps another Backend and fails the next ApplyUpdateBatch
// with failErr; when applyFirst is set the update still reaches the
// inner backend before the error — modelling an acknowledgment lost
// after the server durably applied.
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
		}
		return err
	}
	return f.Backend.ApplyUpdateBatch(ctx, u)
}

// definiteErr mimics a remote 4xx: Temporary() == false, so the
// failure is a definite rejection, not an ambiguous one.
type definiteErr struct{}

func (definiteErr) Error() string   { return "update rejected" }
func (definiteErr) Temporary() bool { return false }

// TestAmbiguousUpdateStashesAndReconciles: a transport failure after
// the server (possibly) applied leaves the update pending; verified
// queries refuse until Reconcile resends it under the same request
// ID, after which owner and server agree on the post-update state.
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

// TestLocalBackendFailsAtomically: the in-process backend reverts on
// failure, so its errors are never ambiguous and nothing is stashed.
func TestLocalBackendFailsAtomically(t *testing.T) {
	sys, _ := hostForUpdate(t)
	if ambiguousUpdateFailure(sys.Server, errors.New("anything")) {
		t.Fatal("Local backend failure classified ambiguous")
	}
}

// Modes of ackFaultHandler for update requests.
const (
	ackPass int32 = iota // serve normally
	ackHold              // apply, then hold the ack until released
	ackDrop              // apply, then close the connection unanswered
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
	rec := httptest.NewRecorder()
	h.svc.ServeHTTP(rec, r)
	if mode == ackDrop {
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
