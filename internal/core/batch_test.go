package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/wire"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// parkedSends is a backend whose batch sends wait at a gate until the
// test lets them through, so updates that arrive meanwhile queue
// behind the parked send and a multi-member batch forms by count, not
// by timing. Like a network transport, it refuses a send whose context
// has ended by the time it passes the gate. It also counts the reads
// it serves.
type parkedSends struct {
	Backend
	arrived  chan int      // the member count of every send reaching the gate; sized above any test's send count
	inFlight atomic.Int64  // the member count of the last send to reach the gate
	gate     chan struct{} // one token lets one send through; closed, all
	open     sync.Once
	reads    atomic.Int64
}

// parkSends installs a parkedSends in front of the system's backend.
// The gate opens at cleanup, so a failing test leaves nothing parked.
func parkSends(t *testing.T, sys *System) *parkedSends {
	t.Helper()
	p := &parkedSends{Backend: sys.Server, arrived: make(chan int, 64), gate: make(chan struct{})}
	sys.UseBackend(p)
	t.Cleanup(p.openGate)
	return p
}

func (p *parkedSends) Execute(ctx context.Context, q *wire.Query) (*wire.Answer, *wire.StreamStats, error) {
	p.reads.Add(1)
	return p.Backend.Execute(ctx, q)
}

func (p *parkedSends) ApplyUpdateBatch(ctx context.Context, b *wire.UpdateBatch) error {
	p.inFlight.Store(int64(len(b.Updates)))
	p.arrived <- len(b.Updates)
	<-p.gate
	if err := ctx.Err(); err != nil {
		return err
	}
	return p.Backend.ApplyUpdateBatch(ctx, b)
}

// awaitSend returns the member count of the next send to reach the
// gate.
func (p *parkedSends) awaitSend(t *testing.T) int {
	t.Helper()
	select {
	case n := <-p.arrived:
		return n
	case <-time.After(10 * time.Second):
		t.Fatal("no batch send reached the gate")
		return 0
	}
}

// letOne lets one parked send through.
func (p *parkedSends) letOne() { p.gate <- struct{}{} }

// openGate lets every parked and future send through.
func (p *parkedSends) openGate() { p.open.Do(func() { close(p.gate) }) }

// awaitReads blocks until the backend has served n reads.
func (p *parkedSends) awaitReads(t *testing.T, n int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for p.reads.Load() < n {
		if time.Now().After(deadline) {
			t.Fatalf("backend served %d reads, want %d", p.reads.Load(), n)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// hostParked hosts the hospital document with integrity on behind a
// parkedSends.
func hostParked(t *testing.T) (*System, *parkedSends) {
	t.Helper()
	sys, _ := hostForUpdate(t)
	if err := sys.EnableIntegrity(); err != nil {
		t.Fatal(err)
	}
	return sys, parkSends(t, sys)
}

// updateAsync runs one update in its own goroutine.
func updateAsync(sys *System, q, v string) <-chan updateResult {
	return updateAsyncCtx(context.Background(), sys, q, v)
}

// updateAsyncCtx is updateAsync under the caller's context.
func updateAsyncCtx(ctx context.Context, sys *System, q, v string) <-chan updateResult {
	ch := make(chan updateResult, 1)
	go func() {
		n, tm, err := sys.UpdateLeafValuesTimed(ctx, q, v)
		ch <- updateResult{n, tm, err}
	}()
	return ch
}

type updateResult struct {
	n   int
	tm  Timings
	err error
}

// settled waits for an update's result.
func settled(t *testing.T, ch <-chan updateResult) updateResult {
	t.Helper()
	select {
	case r := <-ch:
		return r
	case <-time.After(10 * time.Second):
		t.Fatal("update never settled")
		return updateResult{}
	}
}

// queuedLen reports how many prepared updates wait behind the batch
// parked at p's gate, or -1 while a writer holds the lock.
func (s *System) queuedLen(p *parkedSends) int {
	if !s.mu.TryRLock() {
		return -1
	}
	defer s.mu.RUnlock()
	return len(s.updBatch.members) - int(p.inFlight.Load())
}

// waitQueued blocks until at least n updates sit in the batch queue
// behind the send parked at p's gate.
func waitQueued(t *testing.T, sys *System, p *parkedSends, n int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if sys.queuedLen(p) >= n {
			return
		}
		time.Sleep(200 * time.Microsecond)
	}
	t.Fatalf("queue never reached %d entries", n)
}

func localGen(t *testing.T, sys *System) uint64 {
	t.Helper()
	b := sys.Server
	if p, ok := b.(*parkedSends); ok {
		b = p.Backend
	}
	l, ok := b.(Local)
	if !ok {
		t.Fatal("backend is not Local")
	}
	return l.S.Generation()
}

// The three updates below are chosen so no member's READ ships a block
// another member re-encrypts and no member compares through a band
// another rewrites: each selects by its own target's value band
// (server-side filtered to one block) or, for the pname rename, writes
// a block family nobody else reads.
const (
	renameBetty    = "//patient[SSN='763895']/pname"
	annPolicy      = "//insurance[policy=77110]/policy"
	mattLeukemia   = "//treat[disease='leukemia']/disease"
	mattFirstTreat = "//patient[pname='Matt']/treat[1]/disease"
)

// Updates prepared while a batch is in flight queue behind it and share
// the next commit: one generation bump and one chained root advance for
// both, and their Timings report the shared batch.
func TestBatchedUpdatesShareOneCommit(t *testing.T) {
	sys, p := hostParked(t)
	gen0 := localGen(t, sys)

	lead := updateAsync(sys, renameBetty, "Liz")
	if n := p.awaitSend(t); n != 1 {
		t.Fatalf("leader sent %d members, want 1", n)
	}
	second := updateAsync(sys, annPolicy, "88888")
	waitQueued(t, sys, p, 1)
	third := updateAsync(sys, mattLeukemia, "cholera")
	waitQueued(t, sys, p, 2)
	p.letOne()
	if n := p.awaitSend(t); n != 2 {
		t.Fatalf("second batch carried %d members, want 2", n)
	}
	p.letOne()

	r := settled(t, lead)
	if r.err != nil || r.n != 1 || r.tm.UpdateBatchSize != 1 {
		t.Fatalf("leader: n=%d batch=%d err=%v", r.n, r.tm.UpdateBatchSize, r.err)
	}
	for i, ch := range []<-chan updateResult{second, third} {
		r := settled(t, ch)
		if r.err != nil || r.n != 1 {
			t.Fatalf("queued update %d: n=%d err=%v", i, r.n, r.err)
		}
		if r.tm.UpdateBatchSize != 2 {
			t.Fatalf("queued update %d settled in a batch of %d, want 2", i, r.tm.UpdateBatchSize)
		}
		if r.tm.UpdateEnqueue <= 0 || r.tm.UpdateFlushWait < r.tm.UpdateApply {
			t.Fatalf("queued update %d: enqueue %v, apply %v, flush wait %v", i, r.tm.UpdateEnqueue, r.tm.UpdateApply, r.tm.UpdateFlushWait)
		}
	}
	if got := localGen(t, sys); got != gen0+2 {
		t.Fatalf("two batches bumped the generation %d times, want 2", got-gen0)
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

// While the first writer's send is parked, a second writer on a
// disjoint target prepares and queues: the send does not hold the
// update lock. Both then commit, in two batches, and both values
// verify.
func TestSecondWriterPreparesDuringFlush(t *testing.T) {
	sys, p := hostParked(t)
	gen0 := localGen(t, sys)

	first := updateAsync(sys, mattLeukemia, "cholera")
	p.awaitSend(t)
	second := updateAsync(sys, annPolicy, "88888")
	waitQueued(t, sys, p, 1)
	p.openGate()

	for i, ch := range []<-chan updateResult{first, second} {
		r := settled(t, ch)
		if r.err != nil || r.n != 1 || r.tm.UpdateBatchSize != 1 {
			t.Fatalf("writer %d: n=%d batch=%d err=%v", i, r.n, r.tm.UpdateBatchSize, r.err)
		}
	}
	if got := localGen(t, sys); got != gen0+2 {
		t.Fatalf("generation moved %d times, want 2 (one batch each)", got-gen0)
	}
	for q, want := range map[string]string{
		"//patient[.//policy>80000]/pname":      "Ann",
		"//patient[.//disease='cholera']/pname": "Matt",
	} {
		if got := queryValues(t, sys, q); len(got) != 1 || got[0] != want {
			t.Errorf("%s = %v, want [%s]", q, got, want)
		}
	}
}

// A queued member whose context expires before it leads still sends
// its batch: the batch belongs to every member, so its batch-mates and
// the leader itself commit, and nothing is left pending.
func TestQueuedLeaderContextCannotFailBatch(t *testing.T) {
	sys, p := hostParked(t)

	first := updateAsync(sys, renameBetty, "Liz")
	p.awaitSend(t)
	ctx, cancel := context.WithCancel(context.Background())
	leader := updateAsyncCtx(ctx, sys, annPolicy, "88888")
	waitQueued(t, sys, p, 1)
	mate := updateAsync(sys, mattLeukemia, "cholera")
	waitQueued(t, sys, p, 2)
	cancel()
	p.openGate()

	if r := settled(t, first); r.err != nil || r.n != 1 {
		t.Fatalf("first writer: n=%d err=%v", r.n, r.err)
	}
	for i, ch := range []<-chan updateResult{leader, mate} {
		if r := settled(t, ch); r.err != nil || r.n != 1 || r.tm.UpdateBatchSize != 2 {
			t.Fatalf("member %d of the second batch: n=%d batch=%d err=%v", i, r.n, r.tm.UpdateBatchSize, r.err)
		}
	}
	if sys.UpdatePending() {
		t.Fatal("an expired leader context left the batch pending")
	}
	for q, want := range map[string]string{
		"//patient[.//policy>80000]/pname":      "Ann",
		"//patient[.//disease='cholera']/pname": "Matt",
		"//patient[pname='Liz']/SSN":            "763895",
	} {
		if got := queryValues(t, sys, q); len(got) != 1 || got[0] != want {
			t.Errorf("%s = %v, want [%s]", q, got, want)
		}
	}
}

// A reader whose value comparisons translate through a band an
// unsettled update rewrote waits until that batch is flushed (the
// rewritten client table is ahead of the server), bounded by its own
// context; readers over untouched bands run past the parked send.
func TestReaderBarrierFlushesConflictingQueue(t *testing.T) {
	sys, p := hostParked(t)

	upd := updateAsync(sys, mattFirstTreat, "cholera")
	p.awaitSend(t)

	// Non-conflicting read (pname band untouched): answered now.
	if got := queryValues(t, sys, "//patient[pname='Ann']/pname"); len(got) != 1 {
		t.Fatalf("non-conflicting query = %v", got)
	}

	// Conflicting read (disease comparison): waits for the batch.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, _, _, err := sys.QueryContext(ctx, "//patient[.//disease='cholera']/pname"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("conflicting query beside the parked send = %v, want its deadline", err)
	}
	type result struct {
		nodes []*xmltree.Node
		err   error
	}
	reader := make(chan result, 1)
	go func() {
		nodes, _, _, err := sys.Query("//patient[.//disease='cholera']/pname")
		reader <- result{nodes, err}
	}()
	p.openGate()
	got := <-reader
	if got.err != nil {
		t.Fatalf("conflicting query: %v", got.err)
	}
	if len(got.nodes) != 1 || got.nodes[0].LeafValue() != "Matt" {
		t.Fatalf("conflicting query = %v, want [Matt]", ResultStrings(got.nodes))
	}
	if r := settled(t, upd); r.err != nil || r.tm.UpdateBatchSize != 1 {
		t.Fatalf("update: batch=%d err=%v", r.tm.UpdateBatchSize, r.err)
	}
}

// A reader's context bounds only its own wait: a reader that gives up
// at the barrier of a queued update leaves that update, and the batch
// in flight ahead of it, to commit.
func TestReaderContextCannotFailQueuedBatch(t *testing.T) {
	sys, p := hostParked(t)

	first := updateAsync(sys, mattFirstTreat, "cholera")
	p.awaitSend(t)
	queued := updateAsync(sys, annPolicy, "88888")
	waitQueued(t, sys, p, 1)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, _, err := sys.QueryContext(ctx, "//patient[.//policy>80000]/pname"); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled reader at the barrier = %v, want context.Canceled", err)
	}
	if _, _, err := sys.AggregateMinMaxContext(ctx, "//insurance/policy", true); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled aggregate at the barrier = %v, want context.Canceled", err)
	}
	p.openGate()
	for i, ch := range []<-chan updateResult{first, queued} {
		if r := settled(t, ch); r.err != nil || r.n != 1 {
			t.Fatalf("writer %d: n=%d err=%v", i, r.n, r.err)
		}
	}
	for q, want := range map[string]string{
		"//patient[.//policy>80000]/pname":      "Ann",
		"//patient[.//disease='cholera']/pname": "Matt",
	} {
		if got := queryValues(t, sys, q); len(got) != 1 || got[0] != want {
			t.Errorf("%s = %v, want [%s]", q, got, want)
		}
	}
	if got := queryValues(t, sys, "//patient[.//disease='leukemia']/pname"); len(got) != 0 {
		t.Errorf("leukemia still found on %v", got)
	}
}

// A writer whose read touches a block an unsettled member re-encrypted
// must wait and redo its read-modify-write, or it would rebuild the
// block from the pre-batch ciphertext and silently drop the unsettled
// edit. Here both writers hit the same disease leaf: the second must
// observe (and overwrite) the first, not resurrect leukemia.
func TestWriterBlockBarrierPreservesQueuedEdit(t *testing.T) {
	sys, p := hostParked(t)

	first := updateAsync(sys, mattFirstTreat, "cholera")
	p.awaitSend(t)
	reads := p.reads.Load()
	second := updateAsync(sys, mattFirstTreat, "measles")
	// The second writer's read ran beside the parked send, so it met
	// the block barrier.
	p.awaitReads(t, reads+1)
	p.openGate()
	if r := settled(t, first); r.err != nil {
		t.Fatalf("first writer: %v", r.err)
	}
	if r := settled(t, second); r.err != nil || r.n != 1 {
		t.Fatalf("second writer: n=%d err=%v", r.n, r.err)
	}

	if got := queryValues(t, sys, mattFirstTreat); len(got) != 1 || got[0] != "measles" {
		t.Fatalf("final disease = %v, want [measles]", got)
	}
	for _, gone := range []string{"cholera", "leukemia"} {
		if got := queryValues(t, sys, "//patient[.//disease='"+gone+"']/pname"); len(got) != 0 {
			t.Fatalf("%s still queryable on %v", gone, got)
		}
	}
}

// Aggregates barrier like queries: a MIN over a band with an unsettled
// rewrite waits for the batch and reports the post-batch extreme.
func TestAggregateBarrierFlushesQueue(t *testing.T) {
	sys, p := hostParked(t)

	upd := updateAsync(sys, "//patient[pname='Betty']/insurance/policy", "1")
	p.awaitSend(t)

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, _, err := sys.AggregateMinMaxContext(ctx, "//insurance/policy", false); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("MIN(policy) beside the parked send = %v, want its deadline", err)
	}
	type result struct {
		v   string
		err error
	}
	agg := make(chan result, 1)
	go func() {
		v, _, err := sys.AggregateMinMax("//insurance/policy", false)
		agg <- result{v, err}
	}()
	p.openGate()
	got := <-agg
	if got.err != nil {
		t.Fatalf("MIN(policy): %v", got.err)
	}
	if got.v != "1" {
		t.Fatalf("MIN(policy) = %q, want 1 (the unsettled update must settle first)", got.v)
	}
	if r := settled(t, upd); r.err != nil {
		t.Fatalf("update: %v", r.err)
	}
}

// A definite rejection fails every member queued behind the rejected
// batch with the same error (their chain base never reached the
// server), and undoes all their table rewrites: the value queries and
// their translations are as before the batch.
func TestRejectedBatchFailsQueuedMembers(t *testing.T) {
	sys, _ := hostForUpdate(t)
	if err := sys.EnableIntegrity(); err != nil {
		t.Fatal(err)
	}
	sys.UseBackend(&lossyUpdateBackend{Backend: sys.Server, failErr: definiteErr{}})
	p := parkSends(t, sys)
	probes := []string{"//patient[.//disease='leukemia']/pname", "//patient[.//policy>70000]/pname"}
	before := translateFrames(t, sys, probes)

	first := updateAsync(sys, mattLeukemia, "cholera")
	p.awaitSend(t)
	queued := updateAsync(sys, annPolicy, "88888")
	waitQueued(t, sys, p, 1)
	p.openGate()
	for i, ch := range []<-chan updateResult{first, queued} {
		if r := settled(t, ch); !errors.As(r.err, new(definiteErr)) || errors.Is(r.err, ErrUpdatePending) {
			t.Fatalf("member %d of the rejected chain = %v, want the rejection", i, r.err)
		}
	}
	if sys.UpdatePending() {
		t.Fatal("definite rejection left a pending update")
	}
	if after := translateFrames(t, sys, probes); !reflect.DeepEqual(after, before) {
		t.Fatal("translations changed across a rejected batch")
	}
	for q, want := range map[string]string{probes[0]: "Matt", probes[1]: "Ann"} {
		if got := queryValues(t, sys, q); len(got) != 1 || got[0] != want {
			t.Errorf("after rejection, %s = %v, want [%s]", q, got, want)
		}
	}
}

// translateFrames marshals the owner's translation of each query.
func translateFrames(t *testing.T, sys *System, qs []string) [][]byte {
	t.Helper()
	var out [][]byte
	for _, q := range qs {
		tq, err := sys.Client.Translate(xpath.MustParse(q))
		if err != nil {
			t.Fatal(err)
		}
		b, err := wire.MarshalQuery(tq)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, b)
	}
	return out
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

// lostAckBackend fails one batch send AFTER the inner backend applied
// it — an acknowledgment lost in flight — and states the outcome in
// doubt, as a transport must.
type lostAckBackend struct {
	Backend
	mu       sync.Mutex
	failSend int // 1-based number of the send whose ack is lost
	sent     int
}

func (f *lostAckBackend) ApplyUpdateBatch(ctx context.Context, b *wire.UpdateBatch) error {
	f.mu.Lock()
	f.sent++
	fail := f.sent == f.failSend
	f.mu.Unlock()
	if err := f.Backend.ApplyUpdateBatch(ctx, b); err != nil {
		return err
	}
	if fail {
		return fmt.Errorf("connection reset (%w)", wire.ErrUpdateInDoubt)
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
	fb := &lostAckBackend{Backend: sys.Server, failSend: 2}
	sys.UseBackend(fb)
	p := parkSends(t, sys)

	// The leader's send commits; the two members queued behind it
	// form the second batch, whose ack is lost.
	lead := updateAsync(sys, renameBetty, "Liz")
	p.awaitSend(t)
	members := []<-chan updateResult{
		updateAsync(sys, annPolicy, "55555"),
	}
	waitQueued(t, sys, p, 1)
	members = append(members, updateAsync(sys, mattLeukemia, "cholera"))
	waitQueued(t, sys, p, 2)
	p.openGate()
	if r := settled(t, lead); r.err != nil {
		t.Fatalf("leader: %v", r.err)
	}
	for i, ch := range members {
		if r := settled(t, ch); !errors.Is(r.err, ErrUpdatePending) {
			t.Fatalf("member %d got %v, want ErrUpdatePending", i, r.err)
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
	sent := fb.sent
	fb.mu.Unlock()
	if sent != 3 {
		t.Fatalf("backend saw %d batch sends, want 3 (leader, batch, resend)", sent)
	}
	for q, want := range map[string]string{
		"//patient[.//policy>50000]/pname":      "Ann",
		"//patient[.//disease='cholera']/pname": "Matt",
		"//patient[pname='Liz']/SSN":            "763895",
	} {
		got := queryValues(t, sys, q)
		if len(got) != 1 || got[0] != want {
			t.Errorf("reconciled batch: %s = %v, want [%s]", q, got, want)
		}
	}
}
