// Package core wires the client, server and link into the hosted
// XML database system of Figure 1, and is the engine behind the
// public secxml API. It owns the end-to-end query path — translate
// at the client, execute at the server, transmit, decrypt,
// post-process — and the per-stage timing breakdown the experiments
// of §7 report.
package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/netsim"
	"repro/internal/sc"
	"repro/internal/scheme"
	"repro/internal/server"
	"repro/internal/wire"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// SchemeName selects one of the paper's encryption schemes (§7.1).
type SchemeName string

const (
	SchemeOpt  SchemeName = "opt"  // optimal secure scheme (exact vertex cover)
	SchemeApp  SchemeName = "app"  // Clarkson 2-approximation
	SchemeSub  SchemeName = "sub"  // parents of the opt blocks
	SchemeTop  SchemeName = "top"  // whole document, one block
	SchemeLeaf SchemeName = "leaf" // per-leaf blocks with decoys
)

// BuildScheme constructs the named scheme for a document and SCs.
func BuildScheme(name SchemeName, doc *xmltree.Document, scs []*sc.Constraint) (*scheme.Scheme, error) {
	switch name {
	case SchemeOpt:
		return scheme.Optimal(doc, scs)
	case SchemeApp:
		return scheme.Approx(doc, scs)
	case SchemeSub:
		return scheme.Sub(doc, scs)
	case SchemeTop:
		return scheme.Top(doc), nil
	case SchemeLeaf:
		return scheme.LeafNaive(doc, scs, true)
	default:
		return nil, fmt.Errorf("core: unknown scheme %q", name)
	}
}

// Backend is the owner↔server boundary: the two calls of Fig. 1
// that the wire carries. Local wraps the in-process server.Server, and
// internal/remote provides an HTTP-transported implementation for
// out-of-process deployments. Every call carries a context so remote
// operations are cancellable and carry deadlines; the in-process
// adapter honors cancellation between stages.
type Backend interface {
	// Execute answers a translated query (§6.2) or a MIN/MAX probe of
	// the value index (§6.4, wire.Query.Probe) with the whole answer,
	// still encrypted. A backend that receives the answer as a stream
	// reports the transfer in stats; an in-process one returns nil
	// stats.
	Execute(ctx context.Context, q *wire.Query) (*wire.Answer, *wire.StreamStats, error)
	// ApplyUpdateBatch applies one or more owner-issued mutations
	// atomically: one generation, one root advance, one durability
	// barrier (see wire.UpdateBatch). A lone update is a batch of one.
	// The backend states the outcome: nil is committed, an error
	// wrapping wire.ErrUpdateInDoubt may have been applied, one
	// wrapping wire.ErrUpdateRejected was refused by the server after
	// its dedup lookup, and any other error means this call applied
	// nothing.
	ApplyUpdateBatch(ctx context.Context, b *wire.UpdateBatch) error
}

// Local adapts the in-process server.Server to the context-aware
// Backend interface. The server's calls are synchronous and local,
// so cancellation is only observed at call boundaries, answers arrive
// whole (no stream, so no stats), and an update either commits or
// fails atomically — never in doubt. A batch the server refuses is
// wire.ErrUpdateRejected.
type Local struct{ S *server.Server }

// Execute implements Backend.
func (l Local) Execute(ctx context.Context, q *wire.Query) (*wire.Answer, *wire.StreamStats, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	ans, err := l.S.Execute(q)
	return ans, nil, err
}

// ApplyUpdateBatch implements Backend.
func (l Local) ApplyUpdateBatch(ctx context.Context, b *wire.UpdateBatch) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := l.S.ApplyUpdateBatch(b.Updates); err != nil {
		return fmt.Errorf("%w (%w)", err, wire.ErrUpdateRejected)
	}
	return nil
}

// System is one hosted database: the owner's client state, the
// untrusted server, and the link between them.
//
// A System is safe for concurrent use, and queries never block
// behind updates. Reads are MVCC-style: every query and aggregate
// pins a readSnap — an immutable view of the translation state
// (OPESS transformer table), backend, verifier ring and
// queued-batch fingerprint, published through one atomic pointer —
// and runs its whole pipeline against that pin without touching mu.
// Updates still prepare under the exclusive lock (the occurrence
// tables genuinely mutate) but send without it, republish the
// readSnap at every commit point, and bump updSeq when a flush starts
// so an in-flight read whose value translation the flush may have
// invalidated can detect the skew and retry against a fresh pin (see
// QueryPathContext).
// The server applies the same pattern independently
// (internal/server): each committed batch becomes an immutable
// snapshot readers pin lock-free.
type System struct {
	Client *client.Client
	Server Backend
	Link   netsim.Link

	// mu serializes mutations: update preparation, enqueue and
	// settle, configuration (which waits until no batch is in
	// flight), and readSnap publication. A batch's send to the backend
	// runs with mu released. Queries do NOT take it — they pin the
	// published readSnap — except for the bounded-retry fallback and
	// NaiveQuery (which reads the HostedDB mirror updates rewrite).
	// The exported fields above are set before first use and never
	// reassigned mid-flight.
	mu sync.RWMutex

	// snap is the published read view; see readSnap. Written only
	// under mu (publishLocked), read lock-free by every query.
	snap atomic.Pointer[readSnap]

	// updSeq counts update flushes, bumped BEFORE the backend send of
	// every flush and reconcile. A
	// reader whose answer arrives after the sequence moved past its
	// pinned snapshot cannot tell whether the server executed it
	// before or after the commit — for value queries (whose OPESS
	// translation the commit may have re-banded) the reader retries
	// on a fresh pin instead of risking a silent miss.
	updSeq atomic.Uint64

	// Scheme and HostedDB are retained for inspection and the
	// experiments' size accounting.
	Scheme   *scheme.Scheme
	HostedDB *wire.HostedDB
	// EncryptTime is the wall time Host spent building blocks,
	// metadata and the value index (§7.4's encryption-cost metric).
	EncryptTime time.Duration

	// ring, when installed via EnableIntegrity, holds the owner's
	// Merkle commitment to the hosted state — the current verifier
	// plus a short tail of retired ones (see verifierRing); every
	// answer and aggregate is verified against it before decryption,
	// and updates advance it so freshness survives ApplyUpdateBatch.
	ring *verifierRing

	// pending, when non-nil, is an update whose outcome is in doubt:
	// the backend stated that the failed send may have been applied
	// (wire.ErrUpdateInDoubt: a lost acknowledgment) or may not. The
	// client-side state is already rewritten, so the System refuses
	// verified queries (the commitment may trail the server by one
	// update) until Reconcile resends it under the same request ID —
	// the server's dedup table makes the resend exact-once either way.
	pending *pendingUpdate

	// updBatch is the group commit: the batch in flight and the
	// prepared updates queued behind it (see batcher.go). Guarded by
	// mu like everything else here.
	updBatch updateBatcher
}

// pendingUpdate is the stashed tail of an in-doubt update: the exact
// batch to resend, the verifier state to promote once it lands, and
// its members, whose table rewrites a definite rejection undoes.
type pendingUpdate struct {
	batch        *wire.UpdateBatch
	nextVerifier *wire.AuthVerifier
	members      []*queuedEdit
}

// readSnap is the immutable view one query runs against, published
// through System.snap. Everything a read consults that an update can
// change is captured here at publish time — most importantly the
// client's pinned OPESS transformer table (view) together with the
// unsettled-batch band fingerprint, so "which bands are ahead of the
// server" and "which transformers translate my comparisons" are the
// SAME moment's answer. The structs it points to (ring, backend) are
// themselves safe for concurrent use; the snapshot pins
// which instances this read talks to.
type readSnap struct {
	view    *client.View
	backend Backend
	ring    *verifierRing

	// pending mirrors System.pending != nil at publish time.
	pending bool

	// unsettledBands fingerprints the batch in flight and the queue
	// behind it: an unsettled member has already rewritten the client
	// tables for these OPESS bands, so a read pinned AFTER that
	// rewrite would translate through tables the server may not have
	// caught up to. Reads pinned BEFORE it keep the old table and stay
	// consistent with the server — that is the point of the
	// per-snapshot view. settled, nil when nothing is unsettled, is
	// closed when the next batch settles; a conflicting read waits on
	// it.
	unsettledBands map[uint8]bool
	settled        <-chan struct{}

	// updSeq is System.updSeq at publish time.
	updSeq uint64

	// verSeq is the verifier ring's sequence at publish time: the
	// oldest commitment this read may accept an answer against
	// (zero when integrity is off).
	verSeq uint64
}

// bandConflict reports whether a read translating value comparisons
// through the given tag keys must wait for a batch to settle first:
// its pinned transformer table already includes an unsettled band
// rewrite the server may not have applied. unknown (an unresolvable
// comparison target) conflicts with any unsettled member.
func (sn *readSnap) bandConflict(c *client.Client, keys []string, unknown bool) bool {
	if sn.settled == nil {
		return false
	}
	if unknown {
		return true
	}
	for _, k := range keys {
		if band, ok := c.IndexedBand(k); ok && sn.unsettledBands[band] {
			return true
		}
	}
	return false
}

// publishLocked rebuilds and publishes the readSnap from the current
// state. Called under mu (exclusive) at every mutation: Enable*
// configuration, enqueue, flush start, settle, reconcile — success or
// failure, so the published updSeq always catches up with the live
// counter once the mutation settles.
func (s *System) publishLocked() *readSnap {
	sn := &readSnap{
		view:    s.Client.Snapshot(),
		backend: s.Server,
		ring:    s.ring,
		pending: s.pending != nil,
		updSeq:  s.updSeq.Load(),
		verSeq:  s.ring.pinSeq(),
	}
	if b := &s.updBatch; len(b.members) > 0 {
		sn.unsettledBands, sn.settled = map[uint8]bool{}, b.settledCh()
		for _, qe := range b.members {
			for _, band := range qe.prep.upd.DropBands {
				sn.unsettledBands[band] = true
			}
		}
	}
	s.snap.Store(sn)
	return sn
}

// pin returns the published readSnap, lazily publishing the first
// one. Lock-free on every call after the first.
func (s *System) pin() *readSnap {
	if sn := s.snap.Load(); sn != nil {
		return sn
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if sn := s.snap.Load(); sn != nil {
		return sn
	}
	return s.publishLocked()
}

// EnableIntegrity opts this system into answer verification: the
// client builds the Merkle tree over its (pre-upload) hosted state,
// keeps it as the verifier (digests only, no hosted data), and from
// then on every answer, local or remote, a query's, a probe's or an
// update read's, carries a proof that is checked before any of its
// blocks is decrypted (see execute). Verification failures surface as
// authtree.ErrTampered.
func (s *System) EnableIntegrity() error {
	s.lockIdle()
	defer s.mu.Unlock()
	st, err := wire.BuildAuthState(s.HostedDB)
	if err != nil {
		return err
	}
	s.ring = newVerifierRing(st.Verifier())
	s.publishLocked()
	return nil
}

// Verifier returns the integrity verifier, or nil when
// EnableIntegrity was not called. The remote client shares it (via
// remote.WithVerifier) so tampering is detected per-attempt, before
// the retry policy sees the error — and per read: the ring is a
// wire.ContextVerifier, so that check is made at the floor the read
// pinned and is the answer's only one. The returned value is the live
// verifier ring: updates advance it in place, and an answer produced
// just before a concurrent commit still verifies against the ring's
// retired tail.
func (s *System) Verifier() wire.Verifier {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.ring == nil {
		return nil
	}
	return s.ring
}

// Host encrypts doc under the named scheme with the given SCs and
// boots a server on the upload. The SCs are validated against the
// scheme before anything is hosted.
func Host(doc *xmltree.Document, scSpecs []string, name SchemeName, masterKey []byte) (*System, error) {
	scs, err := sc.ParseAll(scSpecs)
	if err != nil {
		return nil, err
	}
	sch, err := BuildScheme(name, doc, scs)
	if err != nil {
		return nil, err
	}
	if err := sch.Enforces(doc, scs); err != nil {
		return nil, fmt.Errorf("core: scheme %s: %w", name, err)
	}
	cl, err := client.New(masterKey)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	db, err := cl.Encrypt(doc, sch)
	if err != nil {
		return nil, err
	}
	encTime := time.Since(start)
	return &System{
		Client:      cl,
		Server:      Local{S: server.New(db)},
		Link:        netsim.Paper,
		Scheme:      sch,
		HostedDB:    db,
		EncryptTime: encTime,
	}, nil
}

// UseBackend swaps the query-execution backend — e.g. a remote
// server reached over HTTP (internal/remote) — in place of the
// in-process one built by Host. The client state and keys are
// untouched; only where translated queries go changes.
func (s *System) UseBackend(b Backend) {
	s.lockIdle()
	defer s.mu.Unlock()
	s.Server = b
	s.publishLocked()
}

// Timings is the per-stage cost breakdown of one query (§7.2).
type Timings struct {
	ClientTranslate time.Duration
	// ServerExec is the backend round trip (server execution plus, when
	// remote, wire and codec) without the owner's Merkle check: Verify.
	ServerExec    time.Duration
	Verify        time.Duration // the one accepted integrity pass; zero with integrity off
	Transmit      time.Duration // simulated: answer bytes over Link
	ClientDecrypt time.Duration
	ClientPost    time.Duration

	QueryBytes    int // translated query size (up-link, negligible)
	AnswerBytes   int
	BlocksShipped int

	// Stale, Unverified and Degraded are always false: every answer
	// the owner returns is live, verified when integrity is on, and a
	// full execution; a backend that fails or tampers yields its
	// error, never a cached or reduced answer. Kept because callers
	// still test them.
	Stale, Unverified, Degraded bool

	// PlanStrategy and PlanEstimate echo the server planner's report
	// for this query: which execution strategy produced the answer
	// ("twig" = holistic twig match over the structure synopsis,
	// "pairwise" = classic per-step interval joins) and the plan's
	// admission-cost estimate. Empty/zero for a value-index probe,
	// which the planner does not run, and for a remote answer served
	// without the plan headers.
	PlanStrategy string
	PlanEstimate int64

	// Generation and Epoch echo the server's db generation counter
	// and boot nonce as carried by this query's answer. Readers can
	// assert monotonicity: under one epoch, a later query must never
	// observe a smaller generation.
	Generation uint64
	Epoch      uint64

	// Streamed marks an answer that arrived as an SXS1 stream (every
	// remote answer); StreamChunks and StreamBytes describe that
	// transfer. All zero for an in-process backend.
	Streamed     bool
	StreamChunks int
	StreamBytes  int

	// UpdateBatchSize is how many members this update's batch carried:
	// one, plus every update that queued while the batch ahead of it
	// was in flight. UpdateEnqueue is the time this update sat queued
	// behind an in-flight batch before its own flush began,
	// UpdateApply the shared backend round trip, and UpdateFlushWait
	// the caller's total wall time from enqueue to settled outcome.
	// All zero on a query.
	UpdateBatchSize int
	UpdateEnqueue   time.Duration
	UpdateFlushWait time.Duration
	UpdateApply     time.Duration
}

// Total sums every stage.
func (t Timings) Total() time.Duration {
	return t.ClientTranslate + t.ServerExec + t.Verify + t.Transmit + t.ClientDecrypt + t.ClientPost
}

// Query runs the full Figure 1 round trip for an XPath query string
// and returns the result nodes (owned by the returned document),
// with the per-stage timing breakdown.
func (s *System) Query(q string) ([]*xmltree.Node, *xmltree.Document, Timings, error) {
	return s.QueryContext(context.Background(), q)
}

// QueryContext is Query with a caller-supplied context bounding the
// backend round trip.
func (s *System) QueryContext(ctx context.Context, q string) ([]*xmltree.Node, *xmltree.Document, Timings, error) {
	path, err := xpath.Parse(q)
	if err != nil {
		return nil, nil, Timings{}, err
	}
	return s.QueryPathContext(ctx, path)
}

// QueryPath is Query for a pre-parsed path.
func (s *System) QueryPath(path *xpath.Path) ([]*xmltree.Node, *xmltree.Document, Timings, error) {
	return s.QueryPathContext(context.Background(), path)
}

// QueryPathContext is QueryPath with a caller-supplied context.
// Each attempt pins the published readSnap and runs lock-free; three
// outcomes loop:
//
//   - errUpdateConflict: the pinned translation state is ahead of the
//     server by an unsettled batch; wait (bounded by ctx) until it
//     settles and re-pin. A reader never sends updates.
//   - errSnapshotSkew: a commit raced the round trip and this query's
//     value translation may predate it; re-pin and retry. Bounded —
//     after maxSkewRetries the attempt runs under the read lock,
//     where flush starts are excluded and skew is impossible, so
//     progress is guaranteed even under a continuous write load.
//   - anything else is the result. A verification failure needs no
//     retry here: an answer produced after a server-side commit but
//     before its ack verifies against the root the ring STAGED at
//     send time (see verifierRing), so an ErrTampered that survives
//     the ring is genuine and must not cost extra round trips.
func (s *System) QueryPathContext(ctx context.Context, path *xpath.Path) ([]*xmltree.Node, *xmltree.Document, Timings, error) {
	var (
		nodes []*xmltree.Node
		doc   *xmltree.Document
		tm    Timings
	)
	err := s.read(ctx, func(sn *readSnap) (err error) {
		nodes, doc, tm, err = s.queryAttempt(ctx, sn, path)
		return err
	})
	return nodes, doc, tm, err
}

// read runs attempt on pinned readSnaps until it returns anything but
// a retry signal (see QueryPathContext). A conflict waits off the read
// lock: the settle needs mu.
func (s *System) read(ctx context.Context, attempt func(*readSnap) error) error {
	skew := 0
	for {
		sn := s.pin() // outside the lock: the first pin publishes
		var err error
		if skew < maxSkewRetries {
			err = attempt(sn)
		} else {
			s.mu.RLock()
			sn = s.snap.Load()
			err = attempt(sn)
			s.mu.RUnlock()
		}
		switch {
		case errors.Is(err, errUpdateConflict):
			if err := awaitSettle(ctx, sn.settled); err != nil {
				return err
			}
		case errors.Is(err, errSnapshotSkew):
			skew++
		default:
			return err
		}
	}
}

// maxSkewRetries bounds how often a read re-pins after losing a race
// with a concurrent flush before it escalates to the read lock.
const maxSkewRetries = 3

// errSnapshotSkew is the internal retry signal of the lock-free read
// path: the update sequence moved during the round trip and this
// query's value translation may predate the commit the server
// answered from. Never escapes the public entry points.
var errSnapshotSkew = errors.New("core: update committed during read; retry on a fresh snapshot")

// queryAttempt is the query pipeline body, run entirely against the
// pinned readSnap — no System lock is held (or needed) unless the
// caller chose to hold one for skew-free execution.
func (s *System) queryAttempt(ctx context.Context, sn *readSnap, path *xpath.Path) ([]*xmltree.Node, *xmltree.Document, Timings, error) {
	var tm Timings
	if sn.pending && sn.ring != nil {
		// An in-doubt update is outstanding: the live verifier may be
		// one root behind the server, so any verified answer could be
		// rejected as tampered when it is merely fresher. Refuse until
		// Reconcile settles which side of the update the server is on.
		return nil, nil, tm, ErrUpdatePending
	}
	keys, unknown := cmpKeys(path)
	if sn.bandConflict(s.Client, keys, unknown) {
		// The pinned client tables are ahead of the server by an
		// unsettled batch; the entry points wait and retry on this
		// signal.
		return nil, nil, tm, errUpdateConflict
	}
	// Only value comparisons that translate through an OPESS band can
	// be invalidated by a commit (a flush re-bands exactly those
	// transformer tables); purely structural queries and plaintext
	// comparisons are immune to commit races — the server answers
	// each query from one of ITS snapshots — and skip the skew check
	// below. Unknown targets (wildcard tails) stay sensitive.
	cmpSensitive := unknown
	for _, k := range keys {
		if _, indexed := s.Client.IndexedBand(k); indexed {
			cmpSensitive = true
			break
		}
	}

	start := time.Now()
	qs, err := sn.view.Translate(path)
	tm.ClientTranslate = time.Since(start)
	if err != nil {
		return nil, nil, tm, err
	}

	ans, blocks, err := s.execute(ctx, sn.backend, sn.ring, sn.verSeq, qs, &tm)
	if err != nil {
		return nil, nil, tm, err
	}
	if cmpSensitive && s.updSeq.Load() != sn.updSeq {
		// A flush started (or finished) during the round trip: the
		// server may have answered from a generation whose OPESS bands
		// this query's pinned translation predates — a silent miss,
		// not an error the verifier could catch. Retry on a fresh pin.
		return nil, nil, tm, errSnapshotSkew
	}
	tm.AnswerBytes = ans.ByteSize()
	tm.BlocksShipped = len(ans.Blocks)
	tm.Transmit = s.Link.TransferTime(tm.AnswerBytes)
	tm.Generation, tm.Epoch = ans.Generation, ans.Epoch
	tm.PlanStrategy, tm.PlanEstimate = ans.PlanStrategy, ans.PlanCost

	start = time.Now()
	nodes, doc, err := s.Client.PostProcess(path, ans, blocks)
	tm.ClientPost = time.Since(start)
	if err != nil {
		return nil, nil, tm, err
	}
	return nodes, doc, tm, nil
}

// execute is the one way an answer reaches the owner, for a query, a
// MIN/MAX probe and an update's read half alike: it sends the
// translated query to the live backend, verifies the answer once, and
// only then decrypts its blocks, once, on the caller's goroutine.
//
// With integrity on (a non-nil ring), the answer is checked at floor:
// the commitment current at a read's pin, or the ring's current
// sequence for an update read, which runs under the exclusive lock.
// Answers from either side of a commit that raced the round trip
// verify; a replayed pre-pin answer does not. The context tells a
// verifying transport that floor (see answerCheck), so its in-attempt
// check is the one; only an answer nobody checked for this read is
// checked here.
func (s *System) execute(ctx context.Context, backend Backend, ring *verifierRing, floor uint64, qs *wire.Query, tm *Timings) (*wire.Answer, map[int][]byte, error) {
	qs.WantProof = ring != nil
	ctx, ck := withAnswerCheck(ctx, ring, floor, qs.Probe)
	start := time.Now()
	ans, st, err := backend.Execute(ctx, qs)
	if st != nil {
		tm.Streamed = true
		tm.StreamChunks = st.Chunks
		tm.StreamBytes = st.Bytes
	}
	if err == nil && ck != nil {
		if ck.accepted != ans {
			err = ring.VerifyAnswerContext(ctx, ans)
		}
		tm.Verify = ck.took
	}
	tm.ServerExec = time.Since(start) - tm.Verify
	if err != nil {
		return nil, nil, err
	}

	start = time.Now()
	blocks, err := s.Client.DecryptBlocks(ans)
	tm.ClientDecrypt = time.Since(start)
	if err != nil {
		return nil, nil, err
	}
	return ans, blocks, nil
}

// NaiveQuery evaluates the query with the naive method of §7.3: the
// server ships the entire hosted database; the client decrypts
// everything and runs the query locally.
func (s *System) NaiveQuery(q string) ([]*xmltree.Node, *xmltree.Document, Timings, error) {
	path, err := xpath.Parse(q)
	if err != nil {
		return nil, nil, Timings{}, err
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	var tm Timings

	// Server side: serialize the full residue, ship every block.
	start := time.Now()
	ans := &wire.Answer{Fragments: [][]byte{[]byte(s.HostedDB.Residue.String())}}
	for id, b := range s.HostedDB.Blocks {
		ans.BlockIDs = append(ans.BlockIDs, id)
		ans.Blocks = append(ans.Blocks, b)
	}
	tm.ServerExec = time.Since(start)
	tm.AnswerBytes = ans.ByteSize()
	tm.BlocksShipped = len(ans.Blocks)
	tm.Transmit = s.Link.TransferTime(tm.AnswerBytes)

	start = time.Now()
	blocks, err := s.Client.DecryptBlocks(ans)
	tm.ClientDecrypt = time.Since(start)
	if err != nil {
		return nil, nil, tm, err
	}

	start = time.Now()
	nodes, doc, err := s.Client.PostProcess(path, ans, blocks)
	tm.ClientPost = time.Since(start)
	if err != nil {
		return nil, nil, tm, err
	}
	return nodes, doc, tm, nil
}

// ResultStrings serializes result nodes compactly, for comparisons
// and display.
func ResultStrings(nodes []*xmltree.Node) []string {
	out := make([]string, 0, len(nodes))
	for _, n := range nodes {
		out = append(out, resultString(n))
	}
	return out
}

func resultString(n *xmltree.Node) string {
	switch n.Kind {
	case xmltree.Attribute:
		return n.Tag + "=" + n.Value
	case xmltree.Text:
		return n.Value
	default:
		return xmltree.NewDocument(n.Clone()).String()
	}
}
