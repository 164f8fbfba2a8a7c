package remote

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/wire"
)

// dropConn closes an update request's connection without a status: the
// frame reached the server and no answer came back.
const dropConn = -1

// scriptedUpdates answers the n-th update request with statuses[n]
// (dropConn to hang up) and counts the requests it saw.
type scriptedUpdates struct {
	statuses []int
	n        atomic.Int32
}

func (h *scriptedUpdates) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/healthz" {
		w.WriteHeader(http.StatusOK)
		return
	}
	i := int(h.n.Add(1)) - 1
	status := h.statuses[len(h.statuses)-1]
	if i < len(h.statuses) {
		status = h.statuses[i]
	}
	if status == dropConn {
		if conn, _, err := w.(http.Hijacker).Hijack(); err == nil {
			conn.Close()
		}
		return
	}
	w.WriteHeader(status)
}

// updateOutcome is the class of an ApplyUpdateBatch result.
type updateOutcome int

const (
	outCommitted updateOutcome = iota
	outInDoubt
	outRejected
	outNeither // failed, wrapping neither sentinel
)

// TestUpdateOutcomeStated: Client.ApplyUpdateBatch states every
// failure's outcome over all its attempts. In doubt: some attempt may
// have landed (no status, or a 5xx other than 504) and none was
// acknowledged — whatever the last attempt said. Rejected: the service
// refused the batch after its dedup lookup (422). Neither: the call
// applied nothing but says nothing about earlier sends — a 504 or
// another 4xx, an ended context, an open breaker.
func TestUpdateOutcomeStated(t *testing.T) {
	for _, c := range []struct {
		name     string
		statuses []int
		attempts int
		want     updateOutcome
	}{
		{"ack", []int{http.StatusOK}, 1, outCommitted},
		{"dropped", []int{dropConn}, 1, outInDoubt},
		{"500", []int{http.StatusInternalServerError}, 1, outInDoubt},
		{"503", []int{http.StatusServiceUnavailable}, 1, outInDoubt},
		{"422", []int{http.StatusUnprocessableEntity}, 1, outRejected},
		{"400", []int{http.StatusBadRequest}, 1, outNeither},
		{"504", []int{http.StatusGatewayTimeout}, 1, outNeither},
		{"dropped then 504", []int{dropConn, http.StatusGatewayTimeout}, 2, outInDoubt},
		{"dropped then 422", []int{dropConn, http.StatusUnprocessableEntity}, 2, outInDoubt},
		{"429 then 422", []int{http.StatusTooManyRequests, http.StatusUnprocessableEntity}, 2, outRejected},
		{"dropped then ack", []int{dropConn, http.StatusOK}, 2, outCommitted},
	} {
		t.Run(c.name, func(t *testing.T) {
			h := &scriptedUpdates{statuses: c.statuses}
			ts := httptest.NewServer(h)
			defer ts.Close()
			cl := Dial(ts.URL, "db").WithHTTPClient(ts.Client()).
				WithRetry(RetryPolicy{MaxAttempts: c.attempts, BaseDelay: time.Millisecond})
			err := cl.ApplyUpdateBatch(context.Background(), &wire.UpdateBatch{Updates: []*wire.Update{{}}})
			if got := int(h.n.Load()); got != len(c.statuses) {
				t.Fatalf("service saw %d update requests, want %d", got, len(c.statuses))
			}
			checkOutcome(t, err, c.want)
		})
	}

	// Nothing sent: an ended context, and an open breaker.
	h := &scriptedUpdates{statuses: []int{http.StatusInternalServerError}}
	ts := httptest.NewServer(h)
	defer ts.Close()
	cl := Dial(ts.URL, "db").WithHTTPClient(ts.Client()).WithRetry(NoRetry).
		WithBreaker(BreakerConfig{FailureThreshold: 1, Cooldown: time.Hour})
	b := &wire.UpdateBatch{Updates: []*wire.Update{{}}}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	checkOutcome(t, cl.ApplyUpdateBatch(ctx, b), outNeither)
	checkOutcome(t, cl.ApplyUpdateBatch(context.Background(), b), outInDoubt) // opens the breaker
	err := cl.ApplyUpdateBatch(context.Background(), b)
	if !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("update with the breaker open = %v, want ErrCircuitOpen", err)
	}
	checkOutcome(t, err, outNeither)
	if got := h.n.Load(); got != 1 {
		t.Fatalf("service saw %d update requests, want 1 (only the in-doubt one)", got)
	}
}

// checkOutcome fails t unless err belongs to class want.
func checkOutcome(t *testing.T, err error, want updateOutcome) {
	t.Helper()
	doubt, rej := errors.Is(err, wire.ErrUpdateInDoubt), errors.Is(err, wire.ErrUpdateRejected)
	var ok bool
	switch want {
	case outCommitted:
		ok = err == nil
	case outInDoubt:
		ok = doubt && !rej
	case outRejected:
		ok = rej && !doubt
	default:
		ok = err != nil && !doubt && !rej
	}
	if !ok {
		t.Fatalf("outcome %v (in doubt %v, rejected %v), want class %d", err, doubt, rej, want)
	}
}
