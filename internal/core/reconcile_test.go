package core

import (
	"context"
	"errors"
	"testing"

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
// final (4xx-style) keeps the old behavior — the error surfaces, no
// pending state, queries keep working.
func TestDefiniteRejectionDoesNotStash(t *testing.T) {
	sys, _ := hostForUpdate(t)
	fb := &lossyUpdateBackend{Backend: sys.Server, failErr: definiteErr{}}
	sys.UseBackend(fb)

	_, err := sys.UpdateLeafValues("//patient[pname='Matt']/treat[1]/disease", "cholera")
	if err == nil || errors.Is(err, ErrUpdatePending) {
		t.Fatalf("definite rejection returned %v", err)
	}
	if sys.UpdatePending() {
		t.Fatal("definite rejection left a pending update")
	}
	if _, _, _, err := sys.Query("//patient/pname"); err != nil {
		t.Fatalf("query after definite rejection: %v", err)
	}
	// Reconcile with nothing pending is a no-op.
	if n, err := sys.Reconcile(context.Background()); n != 0 || err != nil {
		t.Fatalf("Reconcile with nothing pending = (%d, %v)", n, err)
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
