// Package admission is the server's overload-protection layer: one
// FIFO gate that bounds the cost executing at once and sheds with a
// Retry-After computed from the observed drain rate, plus a
// reject-on-arrival check for requests whose propagated deadline
// cannot cover the expected latency.
//
// The DAS model (see the package comment of internal/remote) puts
// every query on an untrusted server; under load the dominant failure
// is overload, not a hostile network. The currency of admission here
// is *cost* — the predicted number of hosted blocks a request
// touches, derived from OPESS band occupancy and DSI interval-group
// counts by internal/server — so one expensive twig query pays for
// what it actually displaces rather than counting the same as a point
// lookup.
//
// Nothing in this package relaxes integrity: a request is either
// executed in full, its answer verified by the owner like any other,
// or refused with a status the owner's retry policy understands.
package admission

import (
	"context"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// Config sizes the gate. The zero config is observe-only: everything
// admits and only the counters and the latency estimate run, so the
// remote service always holds a non-nil controller, and a plain
// in-flight bound is just a unit-cost gate (MaxCost = n).
type Config struct {
	// MaxCost is the gate capacity in cost units; 0 disables the
	// gate entirely (no bound, no queue).
	MaxCost int64
	// MaxQueue bounds the number of queued requests; 0 selects 64.
	MaxQueue int
	// QueueWait bounds how long a request queues; 0 selects 2s.
	QueueWait time.Duration
	// CostAware asks the HTTP layer to price each request via the
	// server's cost estimator instead of cost 1. (Carried here so one
	// config object describes the whole admission setup; the
	// controller itself just takes whatever cost Admit is given.)
	CostAware bool
}

// Request describes one arrival.
type Request struct {
	Cost int64
	// Deadline is the caller's absolute deadline (zero = none): the
	// controller rejects on arrival when the remaining budget cannot
	// cover the expected service latency.
	Deadline time.Time
}

// Rejection says why a request was not admitted and how to answer.
type Rejection struct {
	// Status is the HTTP status to answer with: 503 for gate sheds,
	// 504 for a deadline that cannot be met, 499 for a caller that
	// gave up while queued.
	Status int
	// Reason is the response body text.
	Reason string
	// RetryAfter, when positive, goes out as the Retry-After header.
	RetryAfter time.Duration
}

// Ticket is a successful admission; Done releases the capacity and
// feeds the latency estimate. Done is idempotent.
type Ticket struct {
	c     *Controller
	cost  int64 // gate units held; 0 when admitted without a gate
	start time.Time
	done  atomic.Bool
}

// Done releases the ticket, recording the request's total latency
// (queue wait included) into the EWMA.
func (t *Ticket) Done() {
	if t == nil || !t.done.CompareAndSwap(false, true) {
		return
	}
	if t.cost > 0 {
		t.c.release(t.cost)
	}
	t.c.expected.observe(time.Since(t.start))
}

// Controller is the admission layer: the gate (see gate.go) and the
// deadline check. The zero-config controller admits everything and
// only keeps counters.
type Controller struct {
	capacity  int64 // gate size in cost units; 0 = no gate
	maxQueue  int
	queueWait time.Duration
	// costAware mirrors Config.CostAware: immutable after New, so
	// callers holding the controller can consult it without touching
	// the config it was built from.
	costAware bool

	// expected is the rolling estimate of one admitted request's
	// total latency, feeding the reject-on-arrival deadline check.
	expected *ewma

	mu         sync.Mutex
	inFlight   int64
	queue      []*waiter // FIFO of live waiters only
	queuedCost int64

	// Drain-rate bookkeeping (cost units completed per second),
	// folded into an EWMA once per drainWindow.
	drainRate   float64
	windowStart time.Time
	windowCost  int64

	admitted         int64
	rejectedFull     int64
	rejectedTimeout  int64
	rejectedDeadline int64
}

// New builds a controller from cfg.
func New(cfg Config) *Controller {
	c := &Controller{
		capacity:    cfg.MaxCost,
		maxQueue:    cfg.MaxQueue,
		queueWait:   cfg.QueueWait,
		costAware:   cfg.CostAware,
		expected:    newEWMA(0.2),
		windowStart: time.Now(),
	}
	if c.maxQueue <= 0 {
		c.maxQueue = 64
	}
	if c.queueWait <= 0 {
		c.queueWait = 2 * time.Second
	}
	return c
}

// Admit runs the deadline feasibility check, then the cost gate (the
// only step that can block). Exactly one of the returns is non-nil.
func (c *Controller) Admit(ctx context.Context, req Request) (*Ticket, *Rejection) {
	start := time.Now()

	// Deadline feasibility: a request that cannot finish inside its
	// remaining budget wastes a worker on an answer nobody reads.
	// The expectation is the EWMA of recent total latencies; before
	// any observation it is zero and the check passes (no estimate,
	// no rejection).
	if !req.Deadline.IsZero() {
		remaining, expected := time.Until(req.Deadline), c.expected.value()
		if remaining <= 0 || remaining < expected {
			c.NoteDeadlineShed()
			return nil, &Rejection{
				Status: http.StatusGatewayTimeout,
				Reason: "deadline cannot be met: " + remaining.String() +
					" remaining, expected latency " + expected.String(),
			}
		}
	}

	if c.capacity == 0 {
		c.mu.Lock()
		c.admitted++
		c.mu.Unlock()
		return &Ticket{c: c, start: start}, nil
	}
	cost, rej := c.acquire(ctx, req.Cost)
	if rej != nil {
		return nil, rej
	}
	return &Ticket{c: c, cost: cost, start: start}, nil
}

// CostAware reports whether admitted requests should be priced by
// their predicted work (vs one unit each).
func (c *Controller) CostAware() bool { return c.costAware }

// NoteDeadlineShed counts an arrival the HTTP layer turned away on an
// already-expired deadline on endpoints that bypass Admit (updates).
func (c *Controller) NoteDeadlineShed() {
	c.mu.Lock()
	c.rejectedDeadline++
	c.mu.Unlock()
}

// SeedExpectedLatency overwrites the deadline check's latency
// expectation — tests and load harnesses warm the reject-on-arrival
// path without running calibration traffic.
func (c *Controller) SeedExpectedLatency(d time.Duration) { c.expected.seed(d) }

// Stats is the JSON-friendly snapshot surfaced by /db/{name}/stats
// and expvar.
type Stats struct {
	QueueDepth        int     `json:"queue_depth"`
	InFlightCost      int64   `json:"in_flight_cost"`
	ExpectedLatencyMs float64 `json:"expected_latency_ms"`
	Rejected          int64   `json:"rejected"`
	RejectedQueue     int64   `json:"rejected_queue"`
	RejectedDeadline  int64   `json:"rejected_deadline"`
	Admitted          int64   `json:"admitted"`
}

// Snapshot collects the counters.
func (c *Controller) Snapshot() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := Stats{
		QueueDepth:        len(c.queue),
		InFlightCost:      c.inFlight,
		ExpectedLatencyMs: float64(c.expected.value()) / float64(time.Millisecond),
		RejectedQueue:     c.rejectedFull + c.rejectedTimeout,
		RejectedDeadline:  c.rejectedDeadline,
		Admitted:          c.admitted,
	}
	st.Rejected = st.RejectedQueue + st.RejectedDeadline
	return st
}
