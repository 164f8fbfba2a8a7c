package admission

import (
	"context"
	"net/http"
	"sync/atomic"
	"time"
)

// Controller composes the gate, the tenant quotas and the brownout
// loop behind one Admit call. Every feature is individually optional
// (zero config = observe-only: everything admits, stats still work),
// so the remote service always holds a non-nil controller, and a
// plain in-flight bound is just a unit-cost gate (MaxCost = n).

// Config selects which protections run.
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
	// TenantRate enables per-tenant token buckets: cost units per
	// second each client ID may spend; 0 disables quotas.
	TenantRate float64
	// TenantBurst is the bucket ceiling; 0 selects 4x TenantRate.
	TenantBurst float64
	// Brownout enables the degradation controller.
	Brownout bool
	// BrownoutConfig tunes it (zero fields = defaults).
	BrownoutConfig BrownoutConfig
}

// Request describes one arrival.
type Request struct {
	Priority Priority
	Cost     int64
	Tenant   string
	// Deadline is the caller's absolute deadline (zero = none): the
	// controller rejects on arrival when the remaining budget cannot
	// cover the expected service latency.
	Deadline time.Time
}

// Rejection says why a request was not admitted and how to answer.
type Rejection struct {
	// Status is the HTTP status to answer with: 429 for tenant
	// quota, 503 for queue/brownout sheds, 504 for a deadline that
	// cannot be met.
	Status int
	// Reason is the response body text.
	Reason string
	// RetryAfter, when positive, goes out as the Retry-After header.
	RetryAfter time.Duration
}

// Ticket is a successful admission; Done releases the capacity and
// feeds the latency observers. Done is idempotent.
type Ticket struct {
	c       *Controller
	release func()
	start   time.Time
	done    atomic.Bool
}

// Done releases the ticket, recording the request's total latency
// (queue wait included) into the EWMA and the brownout window.
func (t *Ticket) Done() {
	if t == nil || !t.done.CompareAndSwap(false, true) {
		return
	}
	if t.release != nil {
		t.release()
	}
	t.c.observe(time.Since(t.start))
}

// Controller is the composed admission layer. The zero-config
// controller admits everything and only keeps counters.
type Controller struct {
	gate    *Gate          // nil = unbounded
	tenants *TenantLimiter // nil = quotas off
	brown   *Brownout      // nil = brownout off

	// costAware mirrors Config.CostAware: immutable after New, so
	// callers holding the controller can consult it without touching
	// the (mutable) config it was built from.
	costAware bool

	// expected is the rolling estimate of one admitted request's
	// total latency, feeding the reject-on-arrival deadline check.
	expected *ewma

	admitted         [numPriorities]atomic.Int64 // gateless admits too
	rejectedDeadline atomic.Int64
	rejectedBrownout atomic.Int64
	degradedServed   atomic.Int64
}

// New builds a controller from cfg.
func New(cfg Config) *Controller {
	c := &Controller{expected: newEWMA(0.2), costAware: cfg.CostAware}
	if cfg.MaxCost > 0 {
		maxQueue := cfg.MaxQueue
		if maxQueue <= 0 {
			maxQueue = 64
		}
		wait := cfg.QueueWait
		if wait <= 0 {
			wait = 2 * time.Second
		}
		c.gate = newGate(cfg.MaxCost, maxQueue, wait)
	}
	if cfg.TenantRate > 0 {
		burst := cfg.TenantBurst
		if burst <= 0 {
			burst = 4 * cfg.TenantRate
		}
		c.tenants = newTenantLimiter(cfg.TenantRate, burst)
	}
	if cfg.Brownout {
		c.brown = newBrownout(cfg.BrownoutConfig)
	}
	return c
}

// Admit runs the arrival checks in cheap-to-expensive order:
// brownout class filter, deadline feasibility, tenant quota, then the
// cost gate (the only one that can block). Exactly one of the returns
// is non-nil.
func (c *Controller) Admit(ctx context.Context, req Request) (*Ticket, *Rejection) {
	c.Pulse()
	start := time.Now()
	if req.Cost < 1 {
		req.Cost = 1
	}

	// L3: only the highest class is admitted at all. (L2's cache-only
	// serving needs the answer cache and is handled by the HTTP layer
	// before it calls Admit.)
	if c.Level() >= LevelCritical && req.Priority < Interactive {
		c.rejectedBrownout.Add(1)
		return nil, &Rejection{
			Status:     http.StatusServiceUnavailable,
			Reason:     "brownout: admitting " + Interactive.String() + " requests only",
			RetryAfter: c.RetryAfter(),
		}
	}

	// Deadline feasibility: a request that cannot finish inside its
	// remaining budget wastes a worker on an answer nobody reads.
	// The expectation is the EWMA of recent total latencies; before
	// any observation it is zero and the check passes (no estimate,
	// no rejection).
	if !req.Deadline.IsZero() {
		remaining := time.Until(req.Deadline)
		if remaining <= 0 || remaining < c.expected.value() {
			c.rejectedDeadline.Add(1)
			return nil, &Rejection{
				Status: http.StatusGatewayTimeout,
				Reason: "deadline cannot be met: " + remaining.String() +
					" remaining, expected latency " + c.expected.value().String(),
			}
		}
	}

	if c.tenants != nil {
		if ok, wait := c.tenants.Allow(req.Tenant, float64(req.Cost)); !ok {
			return nil, &Rejection{
				Status:     http.StatusTooManyRequests,
				Reason:     "tenant quota exhausted",
				RetryAfter: wait,
			}
		}
	}

	tk := &Ticket{c: c, start: start}
	if c.gate != nil {
		release, err := c.gate.Acquire(ctx, req.Priority, req.Cost)
		if err != nil {
			if shed, ok := err.(*ShedError); ok {
				return nil, &Rejection{
					Status:     http.StatusServiceUnavailable,
					Reason:     shed.Error(),
					RetryAfter: shed.RetryAfter,
				}
			}
			// Caller's context died while queued.
			return nil, &Rejection{Status: 499, Reason: "client canceled while queued"}
		}
		tk.release = release
	} else {
		c.admitted[clampPriority(req.Priority)].Add(1)
	}
	return tk, nil
}

func clampPriority(p Priority) Priority {
	if p < 0 {
		return 0
	}
	if p >= numPriorities {
		return numPriorities - 1
	}
	return p
}

// observe feeds one completed request's latency to the estimators.
func (c *Controller) observe(d time.Duration) {
	c.expected.observe(d)
	if c.brown != nil {
		c.brown.Observe(d)
		c.brown.MaybeTick(c.QueueDepth())
	}
}

// Pulse gives the brownout loop a chance to advance its control
// window. The HTTP layer calls it on every arrival — including ones
// served by degraded modes that never reach Admit — so the controller
// keeps stepping (down, in particular) as long as any traffic flows.
func (c *Controller) Pulse() {
	if c.brown != nil {
		c.brown.MaybeTick(c.QueueDepth())
	}
}

// Tick forces a brownout window evaluation (tests, quiesce probes).
func (c *Controller) Tick() {
	if c.brown != nil {
		c.brown.Tick(c.QueueDepth())
	}
}

// ForceBrownoutLevel pins the brownout level (tests, operator
// overrides); a no-op when brownout is disabled.
func (c *Controller) ForceBrownoutLevel(lvl int) {
	if c.brown != nil {
		c.brown.ForceLevel(lvl)
	}
}

// Level reports the current brownout level (LevelFull when the
// controller runs without brownout).
func (c *Controller) Level() int {
	if c.brown == nil {
		return LevelFull
	}
	return c.brown.Level()
}

// CostAware reports whether admitted requests should be priced by
// their predicted work (vs one unit each).
func (c *Controller) CostAware() bool { return c.costAware }

// RetryAfter is the current computed backoff hint: drain-rate based
// when the gate runs, the 1s floor otherwise.
func (c *Controller) RetryAfter() time.Duration {
	if c.gate != nil {
		return c.gate.RetryAfter()
	}
	return time.Second
}

// QueueDepth reports the gate backlog (0 without a gate).
func (c *Controller) QueueDepth() int {
	if c.gate == nil {
		return 0
	}
	return c.gate.QueueDepth()
}

// QueueRejected reports queue sheds — the counter the service's
// legacy Rejected() API exposes.
func (c *Controller) QueueRejected() int64 {
	if c.gate == nil {
		return 0
	}
	return c.gate.Rejected()
}

// NoteDegraded counts an answer served by a degraded mode (brownout
// cache-only serving).
func (c *Controller) NoteDegraded() { c.degradedServed.Add(1) }

// NoteBrownoutShed counts a request the HTTP layer shed because of
// the brownout level before it ever reached Admit (cache-only misses,
// class filtering on endpoints that bypass the gate).
func (c *Controller) NoteBrownoutShed() { c.rejectedBrownout.Add(1) }

// NoteDeadlineShed counts an arrival the HTTP layer turned away on an
// already-expired deadline on endpoints that bypass Admit (updates).
func (c *Controller) NoteDeadlineShed() { c.rejectedDeadline.Add(1) }

// SeedExpectedLatency overwrites the deadline check's latency
// expectation — tests and load harnesses warm the reject-on-arrival
// path without running calibration traffic.
func (c *Controller) SeedExpectedLatency(d time.Duration) { c.expected.seed(d) }

// ExpectedLatency exposes the current EWMA estimate.
func (c *Controller) ExpectedLatency() time.Duration { return c.expected.value() }

// Stats is the JSON-friendly snapshot surfaced by /db/{name}/stats
// and expvar.
type Stats struct {
	BrownoutLevel       int              `json:"brownout_level"`
	BrownoutTransitions int64            `json:"brownout_transitions"`
	QueueDepth          int              `json:"queue_depth"`
	InFlightCost        int64            `json:"in_flight_cost"`
	ExpectedLatencyMs   float64          `json:"expected_latency_ms"`
	Rejected            int64            `json:"rejected"`
	RejectedQueue       int64            `json:"rejected_queue"`
	RejectedDeadline    int64            `json:"rejected_deadline"`
	RejectedTenant      int64            `json:"rejected_tenant"`
	RejectedBrownout    int64            `json:"rejected_brownout"`
	DegradedServed      int64            `json:"degraded_served"`
	Admitted            map[string]int64 `json:"admitted"`
}

// Snapshot collects the counters.
func (c *Controller) Snapshot() Stats {
	st := Stats{
		BrownoutLevel:     c.Level(),
		QueueDepth:        c.QueueDepth(),
		ExpectedLatencyMs: float64(c.expected.value()) / float64(time.Millisecond),
		RejectedDeadline:  c.rejectedDeadline.Load(),
		RejectedBrownout:  c.rejectedBrownout.Load(),
		DegradedServed:    c.degradedServed.Load(),
		Admitted:          map[string]int64{},
	}
	var adm [numPriorities]int64
	if c.gate != nil {
		adm = c.gate.Admitted()
		st.RejectedQueue = c.gate.Rejected()
		st.InFlightCost = c.gate.InFlightCost()
	}
	for p := 0; p < numPriorities; p++ {
		st.Admitted[Priority(p).String()] = adm[p] + c.admitted[p].Load()
	}
	if c.tenants != nil {
		st.RejectedTenant = c.tenants.Rejected()
	}
	if c.brown != nil {
		st.BrownoutTransitions = c.brown.Transitions()
	}
	st.Rejected = st.RejectedQueue + st.RejectedDeadline + st.RejectedTenant + st.RejectedBrownout
	return st
}
