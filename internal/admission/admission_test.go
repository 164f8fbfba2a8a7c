package admission

import (
	"context"
	"net/http"
	"sync"
	"testing"
	"time"
)

// mustAdmit admits a request of the given cost or fails the test.
func mustAdmit(t *testing.T, c *Controller, cost int64) *Ticket {
	t.Helper()
	tk, rej := c.Admit(context.Background(), Request{Cost: cost})
	if rej != nil {
		t.Fatalf("admit cost %d: %+v", cost, rej)
	}
	return tk
}

// waitQueued spins until the gate holds n waiters.
func waitQueued(t *testing.T, c *Controller, n int) {
	t.Helper()
	for deadline := time.Now().Add(2 * time.Second); c.QueueDepth() != n; {
		if time.Now().After(deadline) {
			t.Fatalf("QueueDepth = %d, want %d", c.QueueDepth(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestGateCostCapacity: the gate admits up to its cost capacity and
// queues the rest; releasing frees the queued request.
func TestGateCostCapacity(t *testing.T) {
	c := New(Config{MaxCost: 4, QueueWait: 5 * time.Second})
	tk1 := mustAdmit(t, c, 3)
	// Cost 2 does not fit (3+2 > 4): it must queue.
	got := make(chan struct{})
	go func() {
		defer close(got)
		tk, rej := c.Admit(context.Background(), Request{Cost: 2})
		if rej != nil {
			t.Error(rej)
			return
		}
		tk.Done()
	}()
	waitQueued(t, c, 1)
	select {
	case <-got:
		t.Fatal("over-capacity request admitted immediately")
	default:
	}
	tk1.Done()
	select {
	case <-got:
	case <-time.After(2 * time.Second):
		t.Fatal("queued request never admitted after release")
	}
}

// TestGateClampsOversizedCost: a request costing more than the whole
// capacity still runs (clamped), alone.
func TestGateClampsOversizedCost(t *testing.T) {
	c := New(Config{MaxCost: 4, QueueWait: time.Second})
	tk := mustAdmit(t, c, 1000)
	if f := c.Snapshot().InFlightCost; f != 4 {
		t.Fatalf("InFlightCost = %d, want clamp to capacity 4", f)
	}
	tk.Done()
}

// TestGateFIFOOrder: with capacity for one, queued requests are
// admitted in arrival order.
func TestGateFIFOOrder(t *testing.T) {
	c := New(Config{MaxCost: 1, QueueWait: 5 * time.Second})
	hold := mustAdmit(t, c, 1)
	order := make(chan int, 3)
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tk, rej := c.Admit(context.Background(), Request{Cost: 1})
			if rej != nil {
				t.Error(rej)
				return
			}
			order <- i
			tk.Done()
		}()
		waitQueued(t, c, i+1) // i is queued before i+1 arrives
	}
	hold.Done()
	wg.Wait()
	for want := 0; want < 3; want++ {
		if got := <-order; got != want {
			t.Fatalf("admitted %d at position %d, want FIFO order", got, want)
		}
	}
}

// TestGateShedsWhenQueueFull: a bounded queue sheds instantly with a
// 503 and a Retry-After of at least the 1s floor.
func TestGateShedsWhenQueueFull(t *testing.T) {
	c := New(Config{MaxCost: 1, MaxQueue: 1, QueueWait: 5 * time.Second})
	hold := mustAdmit(t, c, 1)
	queued := make(chan struct{})
	go func() {
		defer close(queued)
		if tk, rej := c.Admit(context.Background(), Request{Cost: 1}); rej == nil {
			tk.Done()
		}
	}()
	waitQueued(t, c, 1)
	_, rej := c.Admit(context.Background(), Request{Cost: 1})
	if rej == nil || rej.Status != http.StatusServiceUnavailable {
		t.Fatalf("rejection = %+v, want full-queue 503", rej)
	}
	if rej.RetryAfter < time.Second {
		t.Fatalf("RetryAfter = %v, want >= 1s floor", rej.RetryAfter)
	}
	if got := c.Snapshot().RejectedQueue; got != 1 {
		t.Fatalf("RejectedQueue = %d, want 1", got)
	}
	hold.Done()
	<-queued
}

// TestGateQueueWaitTimeout: a queued request is shed once the queue
// wait passes.
func TestGateQueueWaitTimeout(t *testing.T) {
	c := New(Config{MaxCost: 1, QueueWait: 30 * time.Millisecond})
	hold := mustAdmit(t, c, 1)
	defer hold.Done()
	_, rej := c.Admit(context.Background(), Request{Cost: 1})
	if rej == nil || rej.Status != http.StatusServiceUnavailable || rej.RetryAfter < time.Second {
		t.Fatalf("rejection = %+v, want timeout 503 with Retry-After", rej)
	}
	if d := c.QueueDepth(); d != 0 {
		t.Fatalf("QueueDepth after timeout = %d, want 0", d)
	}
}

// TestGateContextCancelWhileQueued: a caller giving up while queued
// gets a 499 and leaves no queue residue.
func TestGateContextCancelWhileQueued(t *testing.T) {
	c := New(Config{MaxCost: 1, QueueWait: 5 * time.Second})
	hold := mustAdmit(t, c, 1)
	defer hold.Done()
	ctx, cancel := context.WithCancel(context.Background())
	rejc := make(chan *Rejection, 1)
	go func() {
		_, rej := c.Admit(ctx, Request{Cost: 1})
		rejc <- rej
	}()
	waitQueued(t, c, 1)
	cancel()
	if rej := <-rejc; rej == nil || rej.Status != 499 {
		t.Fatalf("rejection = %+v, want 499", rej)
	}
	if d := c.QueueDepth(); d != 0 {
		t.Fatalf("QueueDepth after cancel = %d, want 0", d)
	}
}

// TestGateAbandonedWaitersDoNotLeak: while one request holds the whole
// capacity, waiters that time out or cancel leave the FIFO at once,
// so the queue never grows past MaxQueue however many give up, and
// the next release admits the next live arrival.
func TestGateAbandonedWaitersDoNotLeak(t *testing.T) {
	const maxQueue = 4
	c := New(Config{MaxCost: 1, MaxQueue: maxQueue, QueueWait: 5 * time.Millisecond})
	hold := mustAdmit(t, c, 1)
	for i := 0; i < 10*maxQueue; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		if i%2 == 1 {
			cancel() // odd arrivals cancel, even ones time out
		}
		if _, rej := c.Admit(ctx, Request{Cost: 1}); rej == nil {
			t.Fatalf("arrival %d admitted while capacity is held", i)
		}
		cancel()
		c.mu.Lock()
		n := len(c.queue)
		c.mu.Unlock()
		if n > maxQueue {
			t.Fatalf("after %d abandoned waiters the queue holds %d, want <= %d", i+1, n, maxQueue)
		}
	}
	if d := c.QueueDepth(); d != 0 {
		t.Fatalf("QueueDepth = %d after every waiter gave up, want 0", d)
	}
	c.queueWait = 5 * time.Second // the live arrival outlasts the release below
	live := make(chan *Rejection, 1)
	go func() {
		tk, rej := c.Admit(context.Background(), Request{Cost: 1})
		if rej == nil {
			tk.Done()
		}
		live <- rej
	}()
	waitQueued(t, c, 1)
	hold.Done()
	if rej := <-live; rej != nil {
		t.Fatalf("live arrival after release: %+v", rej)
	}
}

// TestRetryAfterTracksBacklog: once the gate has observed a drain
// rate, the shed hint scales with the backlog instead of sitting at
// the floor.
func TestRetryAfterTracksBacklog(t *testing.T) {
	c := New(Config{MaxCost: 10, QueueWait: time.Second})
	c.mu.Lock()
	c.drainRate = 2 // 2 cost units/s, injected: rate estimation itself is timing-dependent
	c.inFlight = 10
	c.queuedCost = 10
	ra := c.shedLocked("test").RetryAfter
	c.mu.Unlock()
	// 20 units of backlog at 2/s = 10s.
	if ra < 9*time.Second || ra > 11*time.Second {
		t.Fatalf("RetryAfter = %v, want ~10s from backlog/drain-rate", ra)
	}
	// And the ceiling holds.
	c.mu.Lock()
	c.queuedCost = 1000
	ra = c.shedLocked("test").RetryAfter
	c.mu.Unlock()
	if ra > retryAfterCeil {
		t.Fatalf("RetryAfter = %v, want <= %v ceiling", ra, retryAfterCeil)
	}
}

// TestControllerDeadlineReject: an expired deadline rejects with 504
// before touching the gate; so does one shorter than the expected
// latency, once the EWMA is warm.
func TestControllerDeadlineReject(t *testing.T) {
	c := New(Config{MaxCost: 4})
	_, rej := c.Admit(context.Background(), Request{
		Cost: 1, Deadline: time.Now().Add(-time.Second),
	})
	if rej == nil || rej.Status != http.StatusGatewayTimeout {
		t.Fatalf("expired deadline: rejection = %+v, want 504", rej)
	}
	c.SeedExpectedLatency(500 * time.Millisecond)
	_, rej = c.Admit(context.Background(), Request{
		Cost: 1, Deadline: time.Now().Add(50 * time.Millisecond),
	})
	if rej == nil || rej.Status != http.StatusGatewayTimeout {
		t.Fatalf("unmeetable deadline: rejection = %+v, want 504", rej)
	}
	// A comfortable deadline admits.
	tk, rej := c.Admit(context.Background(), Request{
		Cost: 1, Deadline: time.Now().Add(10 * time.Second),
	})
	if rej != nil {
		t.Fatalf("comfortable deadline rejected: %+v", rej)
	}
	tk.Done()
	if got := c.Snapshot().RejectedDeadline; got != 2 {
		t.Fatalf("RejectedDeadline = %d, want 2", got)
	}
}

// TestControllerObserveOnly: the zero config admits everything and
// still snapshots coherent stats (the always-present observer mode
// the remote service boots with).
func TestControllerObserveOnly(t *testing.T) {
	c := New(Config{})
	for i := 0; i < 5; i++ {
		mustAdmit(t, c, 99).Done()
	}
	st := c.Snapshot()
	if st.Admitted != 5 {
		t.Fatalf("Admitted = %d, want 5", st.Admitted)
	}
	if st.Rejected != 0 {
		t.Fatalf("unexpected snapshot: %+v", st)
	}
	if st.ExpectedLatencyMs <= 0 {
		t.Fatalf("ExpectedLatencyMs = %v, want > 0 after 5 observations", st.ExpectedLatencyMs)
	}
}

// TestTicketDoneIdempotent: double Done must not underflow capacity.
func TestTicketDoneIdempotent(t *testing.T) {
	c := New(Config{MaxCost: 2})
	tk := mustAdmit(t, c, 2)
	tk.Done()
	tk.Done()
	if f := c.Snapshot().InFlightCost; f != 0 {
		t.Fatalf("InFlightCost after double Done = %d, want 0", f)
	}
}
