package remote

import (
	"context"
	"math/rand"
	"time"
)

// RetryPolicy configures how the client re-attempts failed remote
// operations: exponential backoff with jitter under a total time
// budget.
//
// Idempotency: queries, aggregates and stats are read-only and retry
// freely. Uploads are full-state PUTs (replaying the same bytes is a
// no-op), and updates carry a request ID the server deduplicates
// (see wire.UpdateBatch.RequestID), so both also retry safely — a retry
// of an update the server already applied is acknowledged without
// being applied twice. Because a retry can end in a refusal after an
// earlier attempt landed, an update's outcome is decided over all its
// attempts, not by the last one's error: see Client.ApplyUpdateBatch.
// For the same reason only a refusal after the server's dedup lookup
// (wire.ErrUpdateRejected) lets the owner drop a batch it holds in
// doubt.
type RetryPolicy struct {
	// MaxAttempts is the total number of attempts, including the
	// first; values <= 1 disable retries.
	MaxAttempts int
	// BaseDelay is the backoff before the second attempt; each
	// further attempt multiplies it by Multiplier, capped at
	// MaxDelay.
	BaseDelay  time.Duration
	MaxDelay   time.Duration
	Multiplier float64
	// Jitter is the fraction of each delay randomized away, in
	// [0, 1]: delay is scaled by a uniform factor in
	// [1-Jitter, 1]. Jitter decorrelates clients hammering a
	// recovering server.
	Jitter float64
	// Budget bounds the total wall time across all attempts and
	// backoffs; 0 means no budget (the context deadline still
	// applies).
	Budget time.Duration
}

// DefaultRetryPolicy is the policy Dial installs: four attempts,
// 50 ms initial backoff doubling to at most 2 s, half-jittered,
// under a 15 s budget.
var DefaultRetryPolicy = RetryPolicy{
	MaxAttempts: 4,
	BaseDelay:   50 * time.Millisecond,
	MaxDelay:    2 * time.Second,
	Multiplier:  2,
	Jitter:      0.5,
	Budget:      15 * time.Second,
}

// NoRetry disables retries entirely.
var NoRetry = RetryPolicy{MaxAttempts: 1}

// delay computes the backoff before attempt n (n=1 is the first
// retry). rng may be nil for an unjittered delay.
func (p RetryPolicy) delay(n int, rng *rand.Rand) time.Duration {
	d := float64(p.BaseDelay)
	mult := p.Multiplier
	if mult <= 0 {
		mult = 1
	}
	for i := 1; i < n; i++ {
		d *= mult
		if p.MaxDelay > 0 && d > float64(p.MaxDelay) {
			d = float64(p.MaxDelay)
			break
		}
	}
	if p.MaxDelay > 0 && d > float64(p.MaxDelay) {
		d = float64(p.MaxDelay)
	}
	if p.Jitter > 0 && rng != nil {
		d *= 1 - p.Jitter*rng.Float64()
	}
	return time.Duration(d)
}

// sleep waits for d or until ctx is done, returning ctx.Err() in the
// latter case.
func sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
