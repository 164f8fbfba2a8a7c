package core

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/wire"
)

// countingBackend wraps Local behind a non-Local type (so
// EnableMirrorReads installs a replica) and counts what reaches the
// "remote" side.
type countingBackend struct {
	l  Local
	mu sync.Mutex

	executes int
	batches  int
}

func (c *countingBackend) Execute(ctx context.Context, q *wire.Query) (*wire.Answer, error) {
	c.mu.Lock()
	c.executes++
	c.mu.Unlock()
	return c.l.Execute(ctx, q)
}

func (c *countingBackend) Extreme(ctx context.Context, lo, hi uint64, max bool) (int, []byte, bool, error) {
	return c.l.Extreme(ctx, lo, hi, max)
}

func (c *countingBackend) ExtremeProof(ctx context.Context, lo, hi uint64, max bool) (*wire.ExtremeResult, error) {
	return c.l.ExtremeProof(ctx, lo, hi, max)
}

func (c *countingBackend) ApplyUpdateBatch(ctx context.Context, b *wire.UpdateBatch) error {
	c.mu.Lock()
	c.batches++
	c.mu.Unlock()
	return c.l.ApplyUpdateBatch(ctx, b)
}

func (c *countingBackend) counts() (executes, batches int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.executes, c.batches
}

// With mirror reads on, the update pipeline's read half never reaches
// the backend: a whole batch commits with zero backend Executes, one
// batch frame, and the post-state answers verified queries correctly.
func TestMirrorReadsServeUpdateReadsLocally(t *testing.T) {
	sys, _ := hostForUpdate(t)
	if err := sys.EnableIntegrity(); err != nil {
		t.Fatal(err)
	}
	cb := &countingBackend{l: sys.Server.(Local)}
	sys.UseBackend(cb)
	sys.EnableMirrorReads()
	if sys.mirrorExec == nil {
		t.Fatal("EnableMirrorReads left no replica behind a non-Local backend")
	}
	sys.EnableUpdateBatching(2, 3*time.Second)

	var wg sync.WaitGroup
	errs := make([]error, 2)
	tms := make([]Timings, 2)
	for i, u := range []struct{ q, v string }{
		{"//patient[pname='Ann']/insurance/policy", "88888"},
		{"//patient[pname='Matt']/treat[1]/disease", "measles"},
	} {
		wg.Add(1)
		go func(i int, q, v string) {
			defer wg.Done()
			_, tms[i], errs[i] = sys.UpdateLeafValuesTimed(context.Background(), q, v)
		}(i, u.q, u.v)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("member %d: %v", i, err)
		}
		if tms[i].UpdateBatchSize != 2 {
			t.Fatalf("member %d: batch of %d, want a 2-member batch", i, tms[i].UpdateBatchSize)
		}
	}

	executes, batches := cb.counts()
	if executes != 0 {
		t.Errorf("update reads reached the backend %d times, want 0 (mirror reads)", executes)
	}
	if batches != 1 {
		t.Errorf("backend saw %d batch frames, want 1", batches)
	}

	// The replica consumed the committed frames: its generation moved
	// off the boot value, in lockstep with the backend server's.
	if got, want := sys.mirrorExec.Generation(), cb.l.S.Generation(); got != want {
		t.Errorf("replica generation %d, backend generation %d", got, want)
	}

	// Verified queries (which DO go to the backend) serve the batch.
	for q, want := range map[string]string{
		"//patient[.//policy>80000]/pname":      "Ann",
		"//patient[.//disease='measles']/pname": "Matt",
	} {
		got := queryValues(t, sys, q)
		if len(got) != 1 || got[0] != want {
			t.Errorf("after mirror-read batch: %s = %v, want [%s]", q, got, want)
		}
	}
}

// Mirror reads also back batches of one, where each commit replays
// its lone member onto the replica.
func TestMirrorReadsInlineUpdates(t *testing.T) {
	sys, _ := hostForUpdate(t)
	if err := sys.EnableIntegrity(); err != nil {
		t.Fatal(err)
	}
	cb := &countingBackend{l: sys.Server.(Local)}
	sys.UseBackend(cb)
	sys.EnableMirrorReads()

	for _, v := range []string{"91111", "92222"} {
		n, err := sys.UpdateLeafValues("//patient[pname='Ann']/insurance/policy", v)
		if err != nil {
			t.Fatalf("update to %s: %v", v, err)
		}
		if n != 1 {
			t.Fatalf("update to %s touched %d values, want 1", v, n)
		}
	}
	executes, batches := cb.counts()
	if executes != 0 {
		t.Errorf("update reads reached the backend %d times, want 0", executes)
	}
	if batches != 2 {
		t.Errorf("backend saw %d frames, want 2", batches)
	}
	got := queryValues(t, sys, "//patient[.//policy>90000]/pname")
	if len(got) != 1 || got[0] != "Ann" {
		t.Errorf("after inline mirror-read updates: got %v, want [Ann]", got)
	}
}

// Behind an in-process backend the read is already local:
// EnableMirrorReads must be a no-op rather than boot a second server.
func TestMirrorReadsNoopWithLocalBackend(t *testing.T) {
	sys, _ := hostForUpdate(t)
	sys.EnableMirrorReads()
	if sys.mirrorExec != nil {
		t.Fatal("EnableMirrorReads built a replica although the backend is Local")
	}
	if n, err := sys.UpdateLeafValues("//patient[pname='Ann']/insurance/policy", "33333"); err != nil || n != 1 {
		t.Fatalf("update after no-op enable: n=%d err=%v", n, err)
	}
}
