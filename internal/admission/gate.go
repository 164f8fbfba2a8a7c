package admission

import (
	"context"
	"net/http"
	"slices"
	"time"
)

// gate.go: the cost-weighted FIFO gate. Capacity is measured in cost
// units (predicted blocks touched), waiters queue in one FIFO drained
// head first, the queue depth is bounded, and sheds carry a
// Retry-After computed from the observed drain rate instead of a
// constant.

// waiter is one queued request.
type waiter struct {
	cost     int64
	ready    chan struct{}
	admitted bool // set under Controller.mu before ready closes
}

// drainWindow paces the drain-rate estimate: completed cost is
// accumulated and folded into the EWMA once per window.
const drainWindow = 250 * time.Millisecond

// retryAfterCeil caps the computed Retry-After so a momentarily deep
// queue cannot tell clients to go away for minutes.
const retryAfterCeil = 30 * time.Second

// acquire takes cost units from the gate, queueing when it is at
// capacity, and returns the units held. Cost is clamped to
// [1, capacity] so one huge request can still run alone rather than
// being unadmittable.
func (c *Controller) acquire(ctx context.Context, cost int64) (int64, *Rejection) {
	cost = min(max(cost, 1), c.capacity)
	c.mu.Lock()
	// Fast path: capacity available and nobody queued ahead of us.
	if len(c.queue) == 0 && c.inFlight+cost <= c.capacity {
		c.inFlight += cost
		c.admitted++
		c.mu.Unlock()
		return cost, nil
	}
	if len(c.queue) >= c.maxQueue {
		c.rejectedFull++
		rej := c.shedLocked("admission: queue full")
		c.mu.Unlock()
		return 0, rej
	}
	w := &waiter{cost: cost, ready: make(chan struct{})}
	c.queue = append(c.queue, w)
	c.queuedCost += cost
	c.mu.Unlock()

	timer := time.NewTimer(c.queueWait)
	defer timer.Stop()
	select {
	case <-w.ready:
		return cost, nil
	case <-ctx.Done():
		if !c.dequeue(w) {
			// Lost the race: a wake pass admitted us before the cancel
			// registered. Give the capacity straight back.
			c.release(cost)
		}
		return 0, &Rejection{Status: 499, Reason: "client canceled while queued"}
	case <-timer.C:
		if c.dequeue(w) {
			c.mu.Lock()
			c.rejectedTimeout++
			rej := c.shedLocked("admission: no capacity within queue wait")
			c.mu.Unlock()
			return 0, rej
		}
		// Admitted at the wire: take the slot rather than wasting the
		// work of the wake pass.
		return cost, nil
	}
}

// dequeue removes w from the FIFO; false means a wake pass already
// admitted it.
func (c *Controller) dequeue(w *waiter) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if w.admitted {
		return false
	}
	if i := slices.Index(c.queue, w); i >= 0 {
		c.queue = slices.Delete(c.queue, i, i+1)
	}
	c.queuedCost -= w.cost
	return true
}

// release returns cost units to the gate and admits queued waiters
// from the head of the FIFO, stopping at the first that does not fit
// (no sneak-past for cheap requests, so an expensive one cannot
// starve).
func (c *Controller) release(cost int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.inFlight -= cost
	c.noteDrainLocked(cost)
	n := 0
	for _, w := range c.queue {
		if c.inFlight+w.cost > c.capacity {
			break
		}
		c.inFlight += w.cost
		c.queuedCost -= w.cost
		c.admitted++
		w.admitted = true
		close(w.ready)
		n++
	}
	c.queue = slices.Delete(c.queue, 0, n)
}

// noteDrainLocked folds completed cost into the drain-rate EWMA once
// per drainWindow.
func (c *Controller) noteDrainLocked(cost int64) {
	c.windowCost += cost
	now := time.Now()
	el := now.Sub(c.windowStart)
	if el < drainWindow {
		return
	}
	inst := float64(c.windowCost) / el.Seconds()
	if c.drainRate == 0 {
		c.drainRate = inst
	} else {
		c.drainRate += 0.3 * (inst - c.drainRate)
	}
	c.windowCost = 0
	c.windowStart = now
}

// shedLocked builds a 503 whose Retry-After is the time the current
// backlog (queued plus in-flight cost) needs to drain at the observed
// rate, floored at one second and capped at retryAfterCeil.
func (c *Controller) shedLocked(reason string) *Rejection {
	ra := time.Second
	if c.drainRate > 0 {
		secs := float64(c.queuedCost+c.inFlight) / c.drainRate
		if d := time.Duration(secs * float64(time.Second)); d > ra {
			ra = d
		}
	}
	// Whole seconds: Retry-After is specified in seconds and a
	// fractional hint would round to zero on old clients.
	ra = min(ra, retryAfterCeil).Round(time.Second)
	return &Rejection{
		Status:     http.StatusServiceUnavailable,
		Reason:     reason + ", retry after " + ra.String(),
		RetryAfter: ra,
	}
}

// QueueDepth reports how many requests are queued right now.
func (c *Controller) QueueDepth() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.queue)
}
