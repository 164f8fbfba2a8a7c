package core

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/wire"
)

func hostBatched(t *testing.T, size int, maxWait time.Duration) *System {
	t.Helper()
	sys, _ := hostForUpdate(t)
	if err := sys.EnableIntegrity(); err != nil {
		t.Fatal(err)
	}
	sys.EnableUpdateBatching(size, maxWait)
	return sys
}

func (s *System) queuedLen() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.updBatch.queue)
}

// waitQueued blocks until at least n updates sit in the batch queue.
func waitQueued(t *testing.T, sys *System, n int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if sys.queuedLen() >= n {
			return
		}
		time.Sleep(200 * time.Microsecond)
	}
	t.Fatalf("queue never reached %d entries", n)
}

func localGen(t *testing.T, sys *System) uint64 {
	t.Helper()
	l, ok := sys.Server.(Local)
	if !ok {
		t.Fatal("backend is not Local")
	}
	return l.S.Generation()
}

// Three concurrent updates on disjoint targets — selected through
// pname predicates, whose band none of them rewrites — coalesce into
// one group commit: one generation bump, one chained root advance,
// and every caller's Timings report the shared batch.
func TestBatchedUpdatesShareOneCommit(t *testing.T) {
	sys := hostBatched(t, 3, 2*time.Second)
	gen0 := localGen(t, sys)

	// The three members are chosen so no member's READ ships a block
	// another member re-encrypts (which would — correctly — trip the
	// block barrier and split the batch): each selects by its own
	// target's value band (server-side filtered to one block) or, for
	// the pname rename, writes a block family nobody else reads.
	type upd struct{ q, v string }
	us := []upd{
		{"//insurance[policy=77110]/policy", "88888"},
		{"//treat[disease='leukemia']/disease", "cholera"},
		{"//patient[SSN='763895']/pname", "Liz"},
	}
	tms := make([]Timings, len(us))
	errs := make([]error, len(us))
	ns := make([]int, len(us))
	var wg sync.WaitGroup
	for i, u := range us {
		wg.Add(1)
		go func(i int, u upd) {
			defer wg.Done()
			ns[i], tms[i], errs[i] = sys.UpdateLeafValuesTimed(context.Background(), u.q, u.v)
		}(i, u)
	}
	wg.Wait()

	maxBatch := 0
	for i := range us {
		if errs[i] != nil {
			t.Fatalf("update %d: %v", i, errs[i])
		}
		if ns[i] != 1 {
			t.Fatalf("update %d edited %d values, want 1", i, ns[i])
		}
		if tms[i].UpdateFlushWait <= 0 {
			t.Fatalf("update %d: zero flush wait", i)
		}
		if tms[i].UpdateBatchSize > maxBatch {
			maxBatch = tms[i].UpdateBatchSize
		}
	}
	if maxBatch != 3 {
		t.Fatalf("max batch size %d, want 3 (one shared flush)", maxBatch)
	}
	if got := localGen(t, sys); got != gen0+1 {
		t.Fatalf("3 batched updates bumped the generation %d times, want 1", got-gen0)
	}

	// Verified queries reflect every member against the batch root.
	for q, want := range map[string]string{
		"//patient[.//policy>80000]/pname":      "Ann",
		"//patient[.//disease='cholera']/pname": "Matt",
		"//patient[pname='Liz']/SSN":            "763895",
	} {
		got := queryValues(t, sys, q)
		if len(got) != 1 || got[0] != want {
			t.Errorf("after batch, %s = %v, want [%s]", q, got, want)
		}
	}
	if got := queryValues(t, sys, "//patient[.//disease='leukemia']/pname"); len(got) != 0 {
		t.Errorf("leukemia still found on %v", got)
	}
}

// A reader whose value comparisons translate through a band a queued
// update rewrote must flush the queue first (the rewritten client
// table is ahead of the server); readers over untouched bands sail
// past the queue against the pre-batch snapshot.
func TestReaderBarrierFlushesConflictingQueue(t *testing.T) {
	sys := hostBatched(t, 8, 3*time.Second)

	var (
		wg   sync.WaitGroup
		tm   Timings
		uerr error
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, tm, uerr = sys.UpdateLeafValuesTimed(context.Background(), "//patient[pname='Matt']/treat[1]/disease", "cholera")
	}()
	waitQueued(t, sys, 1)

	// Non-conflicting read (pname band untouched): no flush.
	if got := queryValues(t, sys, "//patient[pname='Ann']/pname"); len(got) != 1 {
		t.Fatalf("non-conflicting query = %v", got)
	}
	if n := sys.queuedLen(); n != 1 {
		t.Fatalf("non-conflicting query drained the queue (len %d)", n)
	}

	// Conflicting read (disease comparison): flushes, sees the update.
	got := queryValues(t, sys, "//patient[.//disease='cholera']/pname")
	if len(got) != 1 || got[0] != "Matt" {
		t.Fatalf("conflicting query = %v, want [Matt]", got)
	}
	if n := sys.queuedLen(); n != 0 {
		t.Fatalf("queue not drained by conflicting query (len %d)", n)
	}
	wg.Wait()
	if uerr != nil {
		t.Fatalf("queued update: %v", uerr)
	}
	if tm.UpdateBatchSize != 1 {
		t.Fatalf("queued update settled in a batch of %d, want 1", tm.UpdateBatchSize)
	}
}

// A writer whose read touches a block a queued member re-encrypted
// must flush and redo its read-modify-write, or it would rebuild the
// block from the pre-batch ciphertext and silently drop the queued
// edit. Here both writers hit the same disease leaf: the second must
// observe (and overwrite) the first, not resurrect leukemia.
func TestWriterBlockBarrierPreservesQueuedEdit(t *testing.T) {
	sys := hostBatched(t, 8, 250*time.Millisecond)

	var wg sync.WaitGroup
	var aerr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _, aerr = sys.UpdateLeafValuesTimed(context.Background(), "//patient[pname='Matt']/treat[1]/disease", "cholera")
	}()
	waitQueued(t, sys, 1)

	n, err := sys.UpdateLeafValues("//patient[pname='Matt']/treat[1]/disease", "measles")
	if err != nil {
		t.Fatalf("second writer: %v", err)
	}
	if n != 1 {
		t.Fatalf("second writer edited %d values, want 1", n)
	}
	wg.Wait()
	if aerr != nil {
		t.Fatalf("first writer: %v", aerr)
	}

	if got := queryValues(t, sys, "//patient[pname='Matt']/treat[1]/disease"); len(got) != 1 || got[0] != "measles" {
		t.Fatalf("final disease = %v, want [measles]", got)
	}
	for _, gone := range []string{"cholera", "leukemia"} {
		if got := queryValues(t, sys, "//patient[.//disease='"+gone+"']/pname"); len(got) != 0 {
			t.Fatalf("%s still queryable on %v", gone, got)
		}
	}
}

// Aggregates barrier like queries: a MIN over a band with a queued
// rewrite flushes first and reports the post-batch extreme.
func TestAggregateBarrierFlushesQueue(t *testing.T) {
	sys := hostBatched(t, 8, 3*time.Second)

	var wg sync.WaitGroup
	var uerr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _, uerr = sys.UpdateLeafValuesTimed(context.Background(), "//patient[pname='Betty']/insurance/policy", "1")
	}()
	waitQueued(t, sys, 1)

	got, _, err := sys.AggregateMinMax("//insurance/policy", false)
	if err != nil {
		t.Fatalf("MIN(policy): %v", err)
	}
	if got != "1" {
		t.Fatalf("MIN(policy) = %q, want 1 (queued update must flush first)", got)
	}
	wg.Wait()
	if uerr != nil {
		t.Fatalf("queued update: %v", uerr)
	}
}

// FlushUpdates is the explicit durability point: it drains the queue
// without waiting for size or timer.
func TestFlushUpdatesDrainsQueue(t *testing.T) {
	sys := hostBatched(t, 8, 3*time.Second)

	var wg sync.WaitGroup
	var tm Timings
	var uerr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, tm, uerr = sys.UpdateLeafValuesTimed(context.Background(), "//patient[pname='Matt']/treat[1]/disease", "cholera")
	}()
	waitQueued(t, sys, 1)
	if err := sys.FlushUpdates(context.Background()); err != nil {
		t.Fatalf("FlushUpdates: %v", err)
	}
	wg.Wait()
	if uerr != nil {
		t.Fatalf("queued update: %v", uerr)
	}
	if tm.UpdateBatchSize != 1 {
		t.Fatalf("flushed update settled in a batch of %d, want 1", tm.UpdateBatchSize)
	}
	if got := queryValues(t, sys, "//patient[.//disease='cholera']/pname"); len(got) != 1 || got[0] != "Matt" {
		t.Fatalf("after flush, cholera on %v", got)
	}
}

// A lone update is a batch of one, sent inline: its Timings say so,
// and the shared round trip is inside the caller's total wait.
func TestBatchOfOneTimings(t *testing.T) {
	sys, _ := hostForUpdate(t)
	n, tm, err := sys.UpdateLeafValuesTimed(context.Background(), "//patient[pname='Matt']/treat[1]/disease", "cholera")
	if err != nil || n != 1 {
		t.Fatalf("update: n=%d err=%v", n, err)
	}
	if tm.UpdateBatchSize != 1 {
		t.Fatalf("lone update reported a batch of %d", tm.UpdateBatchSize)
	}
	if tm.UpdateApply <= 0 || tm.UpdateFlushWait < tm.UpdateApply {
		t.Fatalf("apply %v not inside flush wait %v", tm.UpdateApply, tm.UpdateFlushWait)
	}
}

// Reconfiguring the batcher must not orphan a queued member: one
// update waits on an hour-long timer for company that the new size of
// one will never send, so the reconfiguration itself flushes it.
func TestReconfigureFlushesQueuedUpdate(t *testing.T) {
	sys := hostBatched(t, 8, time.Hour)

	done := make(chan error, 1)
	go func() {
		_, err := sys.UpdateLeafValues("//patient[pname='Matt']/treat[1]/disease", "cholera")
		done <- err
	}()
	waitQueued(t, sys, 1)
	sys.EnableUpdateBatching(1, 0)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("queued update: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("queued update still blocked after EnableUpdateBatching(1, 0)")
	}
	if got := queryValues(t, sys, "//patient[.//disease='cholera']/pname"); len(got) != 1 || got[0] != "Matt" {
		t.Fatalf("after reconfigure, cholera on %v", got)
	}
	// The new size is in force: the next update commits alone, inline.
	if _, tm, err := sys.UpdateLeafValuesTimed(context.Background(), "//patient[pname='Ann']/insurance/policy", "55555"); err != nil || tm.UpdateBatchSize != 1 {
		t.Fatalf("update after reconfigure: size=%d err=%v", tm.UpdateBatchSize, err)
	}
}

// lostAckBackend fails the next batch send AFTER the inner backend
// applied it — an acknowledgment lost in flight. Embedding Local in a
// distinct type makes the failure classify as ambiguous (only a bare
// Local is known to fail atomically).
type lostAckBackend struct {
	Local
	mu        sync.Mutex
	failNext  bool
	batchSent int
}

func (f *lostAckBackend) ApplyUpdateBatch(ctx context.Context, b *wire.UpdateBatch) error {
	f.mu.Lock()
	fail := f.failNext
	f.failNext = false
	f.batchSent++
	f.mu.Unlock()
	if err := f.Local.ApplyUpdateBatch(ctx, b); err != nil {
		return err
	}
	if fail {
		return errors.New("connection reset")
	}
	return nil
}

// An ambiguous batch failure stashes the WHOLE batch: every member's
// caller gets ErrUpdatePending, verified queries refuse, and one
// Reconcile resends the frame under its original ID and commits all
// members together.
func TestBatchAmbiguousFailureStashesAndReconciles(t *testing.T) {
	sys, _ := hostForUpdate(t)
	if err := sys.EnableIntegrity(); err != nil {
		t.Fatal(err)
	}
	fb := &lostAckBackend{Local: sys.Server.(Local), failNext: true}
	sys.UseBackend(fb)
	sys.EnableUpdateBatching(2, 3*time.Second)

	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i, u := range []struct{ q, v string }{
		{"//patient[pname='Ann']/insurance/policy", "55555"},
		{"//patient[pname='Matt']/treat[1]/disease", "cholera"},
	} {
		wg.Add(1)
		go func(i int, q, v string) {
			defer wg.Done()
			_, errs[i] = sys.UpdateLeafValuesContext(context.Background(), q, v)
		}(i, u.q, u.v)
	}
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, ErrUpdatePending) {
			t.Fatalf("member %d got %v, want ErrUpdatePending", i, err)
		}
	}
	if !sys.UpdatePending() {
		t.Fatal("no pending batch after ambiguous failure")
	}
	if _, _, _, err := sys.Query("//patient/pname"); !errors.Is(err, ErrUpdatePending) {
		t.Fatalf("verified query during pending batch = %v", err)
	}

	n, err := sys.Reconcile(context.Background())
	if err != nil {
		t.Fatalf("Reconcile: %v", err)
	}
	if n != 2 {
		t.Fatalf("Reconcile reported %d edits, want 2 (both members)", n)
	}
	if sys.UpdatePending() {
		t.Fatal("still pending after Reconcile")
	}
	fb.mu.Lock()
	sent := fb.batchSent
	fb.mu.Unlock()
	if sent != 2 {
		t.Fatalf("backend saw %d batch sends, want 2 (original + resend)", sent)
	}
	for q, want := range map[string]string{
		"//patient[.//policy>50000]/pname":      "Ann",
		"//patient[.//disease='cholera']/pname": "Matt",
	} {
		got := queryValues(t, sys, q)
		if len(got) != 1 || got[0] != want {
			t.Errorf("reconciled batch: %s = %v, want [%s]", q, got, want)
		}
	}
}
