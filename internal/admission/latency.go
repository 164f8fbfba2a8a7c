package admission

import (
	"sync"
	"time"
)

// Latency tracking for the deadline check: a rolling expectation of
// how long an admitted request takes, fed on ticket release.

// ewma is a thread-safe exponentially weighted moving average over
// durations. Zero value = no observations yet.
type ewma struct {
	mu    sync.Mutex
	val   float64 // nanoseconds
	alpha float64
	init  bool
}

func newEWMA(alpha float64) *ewma {
	if alpha <= 0 || alpha > 1 {
		alpha = 0.2
	}
	return &ewma{alpha: alpha}
}

func (e *ewma) observe(d time.Duration) {
	e.mu.Lock()
	if !e.init {
		e.val, e.init = float64(d), true
	} else {
		e.val += e.alpha * (float64(d) - e.val)
	}
	e.mu.Unlock()
}

// value returns the current expectation; zero before any observation
// (callers treat zero as "no estimate yet", disabling the check).
func (e *ewma) value() time.Duration {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.init {
		return 0
	}
	return time.Duration(e.val)
}

// seed overwrites the expectation (tests and benchmarks warm the
// deadline check without running traffic).
func (e *ewma) seed(d time.Duration) {
	e.mu.Lock()
	e.val, e.init = float64(d), true
	e.mu.Unlock()
}
