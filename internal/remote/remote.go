// Package remote runs the paper's client/server split over a real
// network: the untrusted server becomes an HTTP service hosting
// uploaded databases, and the owner's client talks to it through a
// core.Backend implementation. Only wire-format bytes cross the
// connection — exactly the information the security analysis already
// assumes the server sees.
//
// The transport is hardened for the failures real deployments see:
// every client operation takes a context.Context (deadline +
// cancellation), failed attempts are retried under a configurable
// exponential-backoff policy (see RetryPolicy for the idempotency
// reasoning), a circuit breaker fails fast while the service is down
// and half-opens on a /healthz probe, every answer carries an
// integrity checksum in its SXS1 trailer so damaged bytes are detected
// and retried, and updates carry request IDs the server deduplicates
// so a retried update is never applied twice. See the chaos test suite
// and the README's "Failure semantics" section.
//
// Endpoints (all bodies are the binary wire formats of
// internal/wire):
//
//	PUT  /db/{name}            upload a hosted database
//	POST /db/{name}/query      translated query or MIN/MAX probe -> answer
//	POST /db/{name}/update     owner-signed update (see wire.Update)
//	GET  /db/{name}/stats      JSON statistics
//	GET  /healthz              liveness
package remote

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/admission"
	"repro/internal/authtree"
	"repro/internal/faultfs"
	"repro/internal/gencache"
	"repro/internal/server"
	"repro/internal/walog"
	"repro/internal/wire"
)

// maxUpload caps request bodies (default 1 GiB).
const maxUpload = 1 << 30

// generationHeader carries the serving database's "epoch:generation"
// pair on query responses — the same values the SXS1 stream header
// echoes in-band. Observability only; clients key their caches off
// the in-band copy, which the stream trailer's checksum covers.
const generationHeader = "X-DB-Generation"

// dedupWindow bounds the per-database set of remembered update
// request IDs (oldest forgotten first).
const dedupWindow = 4096

// streamContentType marks an SXS1 answer body, the one format every
// query answer takes. Its integrity rides in the stream trailer (a
// running SHA-256 the decoder verifies): a whole-body checksum cannot
// be sent before a body that is produced incrementally.
const streamContentType = "application/x-secxml-stream"

// Service is the HTTP-facing untrusted server. It can host several
// databases, keyed by name.
type Service struct {
	mu  sync.RWMutex
	dbs map[string]*hosted
	// persistDir, when set, mirrors every hosted database to disk
	// (see NewPersistentService).
	persistDir string
	// pfs is the filesystem seam for the durable engine; nil means
	// the real filesystem (see PersistOptions.FS).
	pfs faultfs.FS
	// checkpointEvery tunes the durable engine (see PersistOptions);
	// zero selects the default.
	checkpointEvery int
	// uploadMu serializes publish: one name swap, and one write of
	// its snapshot file, at a time.
	uploadMu sync.Mutex
	// dedupHits counts update requests answered from the dedup table
	// instead of being re-applied (observability + tests).
	dedupHits atomic.Int64
	// admv is the overload-protection layer: the cost gate and the
	// deadline feasibility check (see WithAdmission).
	// admv is never nil — the zero config admits everything and only
	// keeps counters — so handlers call it unconditionally. It is an
	// atomic pointer so the controller can be swapped on a live
	// service (operator retuning, test harnesses resetting state
	// between phases); tickets keep a reference to the controller
	// that admitted them, so in-flight requests release correctly
	// across a swap.
	admv atomic.Pointer[admission.Controller]
	// writeTimeout bounds each flush stride of an answer stream: a
	// reader that stops draining (slow loris) trips the connection's
	// write deadline instead of pinning the worker. Zero selects
	// defaultWriteTimeout; negative disables the deadline.
	writeTimeout time.Duration
	// quarantined records corrupt database files set aside at load
	// (see NewPersistentService); written once at startup, read-only
	// afterwards.
	quarantined []QuarantineRecord
}

type hosted struct {
	// mu serializes updates to this database (dedup check + apply +
	// persist act as one step). Queries do NOT take it: the server
	// publishes MVCC snapshots internally, so reads pin a generation
	// and run lock-free against concurrent updates. The current
	// generation's database view is h.srv.CurrentDB() — there is no
	// cached db object here because the upload-time one goes stale
	// the moment the first copy-on-write update commits.
	mu  sync.Mutex
	srv *server.Server
	// retired is set, under mu, when a later upload replaced this
	// incarnation of the name; its pending updates are then refused.
	retired bool
	// seen is the request-ID dedup table: IDs of updates already
	// applied, so a retry of a lost acknowledgment is answered
	// without re-applying. Guarded by mu.
	seen      map[uint64]bool
	seenOrder []uint64

	// dur is the persistence state of this database (nil when the
	// service is memory-only). Guarded by mu like the dedup table.
	dur *durable
	// recovery describes what startup recovery did for this database;
	// written once before the service takes traffic, read-only after.
	recovery *RecoveryStats
	// persistFailures counts updates whose durability step failed
	// (the client got a 5xx and will retry); diskFullFailures is the
	// subset caused by storage exhaustion rather than damage.
	persistFailures  atomic.Int64
	diskFullFailures atomic.Int64

	// Answer-stream counters for this database, surfaced by the stats
	// endpoint: how many query answers went out, and the total bytes
	// and chunks they carried.
	streamAnswers atomic.Int64
	streamBytes   atomic.Int64
	streamChunks  atomic.Int64

	// Update counters, surfaced by the stats endpoint. updSingles
	// counts committed one-member batches; updBatches counts committed
	// multi-member ones, updBatched the updates they carried and
	// updMaxBatch the largest. updApplyNs/updFsyncNs are cumulative
	// over every commit: time in ApplyUpdateBatch, and time waiting on
	// the commit's WAL fsync.
	updBatches  atomic.Int64
	updBatched  atomic.Int64
	updSingles  atomic.Int64
	updMaxBatch atomic.Int64
	updApplyNs  atomic.Int64
	updFsyncNs  atomic.Int64
}

func newHosted(srv *server.Server) *hosted {
	return &hosted{srv: srv, seen: map[uint64]bool{}}
}

// rememberLocked enters a request ID into the dedup table, evicting
// the oldest entry past the window. Caller holds h.mu (or, during
// recovery, is the only goroutine that can see h).
func (h *hosted) rememberLocked(id uint64) {
	h.seen[id] = true
	h.seenOrder = append(h.seenOrder, id)
	if len(h.seenOrder) > dedupWindow {
		delete(h.seen, h.seenOrder[0])
		h.seenOrder = h.seenOrder[1:]
	}
}

// NewService returns an empty service.
func NewService() *Service {
	s := &Service{dbs: map[string]*hosted{}}
	s.admv.Store(admission.New(admission.Config{}))
	return s
}

// adm returns the current admission controller (never nil).
func (s *Service) adm() *admission.Controller { return s.admv.Load() }

// WithAdmission installs the overload-protection configuration: a
// FIFO cost gate (capacity in predicted-blocks-touched units when
// CostAware) in front of the deadline feasibility check. A unit-cost
// gate is MaxCost = n with CostAware off: each request costs one unit
// against a capacity of n, queues up to QueueWait for a slot, then is
// shed with 503. Last caller wins. Call before serving traffic;
// returns s for chaining.
func (s *Service) WithAdmission(cfg admission.Config) *Service {
	s.admv.Store(admission.New(cfg))
	return s
}

// Admission exposes the service's admission controller (stats, test
// hooks).
func (s *Service) Admission() *admission.Controller { return s.adm() }

// defaultWriteTimeout bounds one flush stride of an answer stream.
// Generous: it only needs to be shorter than "forever" to unpin
// workers from dead peers.
const defaultWriteTimeout = 30 * time.Second

// WithWriteTimeout bounds how long one flush stride of an answer
// stream may block on the connection before the write deadline trips
// and the stream is abandoned (the decoder on a live client sees a
// torn body and retries). Zero restores the default (30s); negative
// disables the deadline. Returns s for chaining.
func (s *Service) WithWriteTimeout(d time.Duration) *Service {
	s.writeTimeout = d
	return s
}

// writeTimeoutBounds resolves the configured answer write timeout; ok
// is false when disabled.
func (s *Service) writeTimeoutBounds() (time.Duration, bool) {
	switch {
	case s.writeTimeout < 0:
		return 0, false
	case s.writeTimeout == 0:
		return defaultWriteTimeout, true
	default:
		return s.writeTimeout, true
	}
}

// Rejected reports how many requests were shed with 503 because no
// execution slot freed up within the queue-wait bound.
func (s *Service) Rejected() int { return int(s.adm().Snapshot().RejectedQueue) }

// requestMeta reads the overload-protocol header off one arrival:
// the relative deadline budget turned into an absolute deadline
// against this host's clock.
func requestMeta(r *http.Request) admission.Request {
	req := admission.Request{Cost: 1}
	if ms := r.Header.Get(wire.HeaderDeadlineMS); ms != "" {
		if v, err := strconv.ParseInt(ms, 10, 64); err == nil && v > 0 {
			req.Deadline = time.Now().Add(time.Duration(v) * time.Millisecond)
		}
	}
	return req
}

// shed writes one admission rejection, carrying the computed
// Retry-After (whole seconds, at least 1) on the shed statuses a
// client should back off from.
func shed(w http.ResponseWriter, rej *admission.Rejection) {
	if rej.RetryAfter > 0 {
		secs := int(rej.RetryAfter.Round(time.Second) / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
	}
	http.Error(w, rej.Reason, rej.Status)
}

// admit runs one query arrival through the admission controller. On
// nil the rejection has been written; otherwise the caller must Done()
// the ticket.
func (s *Service) admit(w http.ResponseWriter, r *http.Request, req admission.Request) *admission.Ticket {
	tk, rej := s.adm().Admit(r.Context(), req)
	if rej != nil {
		shed(w, rej)
		return nil
	}
	return tk
}

// execCtx derives the execution context for an admitted request: the
// caller's connection context bounded by its propagated deadline, so
// in-flight work is cancelled the moment the caller's budget runs out.
func execCtx(r *http.Request, req admission.Request) (context.Context, context.CancelFunc) {
	if req.Deadline.IsZero() {
		return r.Context(), func() {}
	}
	return context.WithDeadline(r.Context(), req.Deadline)
}

// DedupHits reports how many update requests were answered from the
// request-ID dedup table rather than re-applied.
func (s *Service) DedupHits() int { return int(s.dedupHits.Load()) }

// ServeHTTP implements http.Handler.
func (s *Service) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/healthz" {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
		return
	}
	rest, ok := strings.CutPrefix(r.URL.Path, "/db/")
	if !ok {
		http.NotFound(w, r)
		return
	}
	name, action, _ := strings.Cut(rest, "/")
	if name == "" {
		http.Error(w, "missing database name", http.StatusBadRequest)
		return
	}
	switch {
	case action == "" && r.Method == http.MethodPut:
		s.handleUpload(w, r, name)
	case action == "query" && r.Method == http.MethodPost:
		s.withDB(w, name, func(h *hosted) { s.handleQuery(w, r, h) })
	case action == "update" && r.Method == http.MethodPost:
		s.withDB(w, name, func(h *hosted) { s.handleUpdate(w, r, name, h) })
	case action == "stats" && r.Method == http.MethodGet:
		s.withDB(w, name, func(h *hosted) { s.handleStats(w, h) })
	default:
		http.Error(w, "unknown endpoint or method", http.StatusMethodNotAllowed)
	}
}

func (s *Service) withDB(w http.ResponseWriter, name string, fn func(*hosted)) {
	s.mu.RLock()
	h := s.dbs[name]
	s.mu.RUnlock()
	if h == nil {
		http.Error(w, "no such database", http.StatusNotFound)
		return
	}
	fn(h)
}

// canceled reports (and answers) a request whose client already gave
// up, so handlers skip work the caller will never see. 499 matches
// nginx's "client closed request".
func canceled(w http.ResponseWriter, r *http.Request) bool {
	if err := r.Context().Err(); err != nil {
		http.Error(w, "client canceled request", 499)
		return true
	}
	return false
}

func (s *Service) handleUpload(w http.ResponseWriter, r *http.Request, name string) {
	// An unsafe name is a permanent client error; reject it before
	// hosting so the client doesn't retry a hopeless upload.
	if s.persistDir != "" && strings.ContainsAny(name, "/\\.") {
		http.Error(w, fmt.Sprintf("database name %q not filesystem-safe", name), http.StatusBadRequest)
		return
	}
	data, err := io.ReadAll(io.LimitReader(r.Body, maxUpload))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	db, err := wire.UnmarshalDB(data)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if canceled(w, r) {
		return
	}
	if err := s.publish(name, newHosted(server.New(db))); err != nil {
		http.Error(w, err.Error(), persistStatus(err))
		return
	}
	w.WriteHeader(http.StatusCreated)
}

// errReplaced refuses an update to a database incarnation that a
// later upload replaced.
var errReplaced = errors.New("database replaced by a new upload")

// publish hosts h under name. A persistent service first makes h
// durable and publishes it only once its snapshot is on disk, so a
// refused upload leaves the name as it was: absent, or the previous
// incarnation with its durable state. The previous incarnation's lock
// is held across the swap, so none of its updates commits meanwhile;
// those queued behind the lock find it retired.
func (s *Service) publish(name string, h *hosted) error {
	s.uploadMu.Lock()
	defer s.uploadMu.Unlock()
	s.mu.RLock()
	old := s.dbs[name]
	s.mu.RUnlock()
	if old != nil {
		old.mu.Lock()
		defer old.mu.Unlock()
	}
	if s.persistDir != "" {
		if err := s.persistUpload(name, h, old); err != nil {
			return err
		}
	}
	s.mu.Lock()
	s.dbs[name] = h
	s.mu.Unlock()
	if old != nil {
		old.retired = true
	}
	return nil
}

// persistStatus maps a durability failure to its HTTP status: 507 for
// storage exhaustion (degraded, retryable once space clears), 500 for
// everything else. Both are >= 500, so the client's retry policy
// treats them as temporary.
func persistStatus(err error) int {
	if errors.Is(err, ErrDiskFull) {
		return http.StatusInsufficientStorage
	}
	return http.StatusInternalServerError
}

func (s *Service) handleQuery(w http.ResponseWriter, r *http.Request, h *hosted) {
	data, err := io.ReadAll(io.LimitReader(r.Body, maxUpload))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if !wire.IsQueryFrame(data) {
		http.Error(w, "not a query frame", http.StatusBadRequest)
		return
	}
	if canceled(w, r) {
		return
	}
	req := requestMeta(r)
	if s.adm().CostAware() {
		req.Cost = h.srv.EstimateFrameCost(data)
	}
	tk := s.admit(w, r, req)
	if tk == nil {
		return
	}
	defer tk.Done()
	ctx, cancel := execCtx(r, req)
	defer cancel()
	// No hosted-level lock: the server's own read lock lets queries
	// run concurrently and orders them against updates. The raw frame
	// goes straight to the server: its fingerprint keys the compiled
	// plan and answer caches, so a repeated query skips even the
	// parse.
	ans, err := h.srv.ExecuteFrameCtx(ctx, data)
	if err != nil {
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			// The propagated caller deadline passed mid-execution; the
			// pipeline abandoned the answer between stages.
			http.Error(w, "caller deadline exceeded during execution", http.StatusGatewayTimeout)
		case errors.Is(err, context.Canceled):
			http.Error(w, "client canceled request", 499)
		default:
			http.Error(w, err.Error(), http.StatusUnprocessableEntity)
		}
		return
	}
	setPlanHeaders(w, ans)
	s.writeAnswer(w, h, ans)
}

// answerWriters recycles the buffers answer streams are written
// through; a stream's small frame writes (tags, varints) coalesce in
// one before they reach the connection.
var answerWriters = sync.Pool{New: func() any { return bufio.NewWriterSize(nil, 32<<10) }}

// writeAnswer sends ans as an SXS1 stream, the one answer format,
// whatever the client and the ResponseWriter support. Frames coalesce
// in a pooled buffer and reach the peer one 16 KiB flush stride at a
// time, so an answer smaller than a stride leaves in one write when the
// handler returns. The connection's write deadline is armed before the
// first byte and re-armed at every stride: a peer that stops draining
// (slow loris) trips it, the buffered writer goes sticky-errored, and
// the encoder unwinds — the worker is freed instead of pinned on a dead
// socket. The generation is echoed out-of-band too (the stream header
// carries it in-band), so operators and proxies can observe cache
// epochs without decoding frames.
func (s *Service) writeAnswer(w http.ResponseWriter, h *hosted, ans *wire.Answer) {
	w.Header().Set("Content-Type", streamContentType)
	w.Header().Set(generationHeader, fmt.Sprintf("%d:%d", ans.Epoch, ans.Generation))
	rc := http.NewResponseController(w)
	wt, bounded := s.writeTimeoutBounds()
	arm := func() {
		if bounded {
			rc.SetWriteDeadline(time.Now().Add(wt))
		}
	}
	bw := answerWriters.Get().(*bufio.Writer)
	bw.Reset(w)
	defer func() {
		bw.Reset(nil)
		answerWriters.Put(bw)
	}()
	arm()
	n, chunks, err := wire.EncodeStreamAnswer(bw, ans, func() {
		arm()
		// A failed flush sticks in bw and ends the encode at its next
		// write; a ResponseWriter that cannot flush sends everything
		// when the handler returns.
		bw.Flush()
		rc.Flush()
	})
	if err == nil {
		err = bw.Flush()
	}
	// A write error means the peer is gone; the torn body is exactly
	// what the decoder reports as retryable, and there is no channel
	// left to say more. Count what actually went out.
	_ = err
	h.streamAnswers.Add(1)
	h.streamBytes.Add(int64(n))
	h.streamChunks.Add(int64(chunks))
}

func (s *Service) handleUpdate(w http.ResponseWriter, r *http.Request, name string, h *hosted) {
	// Updates never take the query gate (they serialize on the hosted
	// lock and must not compete with reads for cost units), but they
	// do honor the overload protocol: an already-dead caller deadline
	// is turned away before any byte of body is read.
	req := requestMeta(r)
	if !req.Deadline.IsZero() && time.Until(req.Deadline) <= 0 {
		s.adm().NoteDeadlineShed()
		http.Error(w, "caller deadline already passed", http.StatusGatewayTimeout)
		return
	}
	data, err := io.ReadAll(io.LimitReader(r.Body, maxUpload))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	b, err := wire.UnmarshalUpdateBatch(data)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if canceled(w, r) {
		return
	}
	applyErr, persistErr := s.commitUpdate(h, data, b)
	if applyErr != nil {
		http.Error(w, applyErr.Error(), http.StatusUnprocessableEntity)
		return
	}
	if persistErr != nil {
		h.persistFailures.Add(1)
		if errors.Is(persistErr, ErrDiskFull) {
			h.diskFullFailures.Add(1)
		}
		http.Error(w, persistErr.Error(), persistStatus(persistErr))
		return
	}
	w.WriteHeader(http.StatusOK)
}

// commitUpdate is the one commit path behind /update: dedup, one
// atomic server apply (single generation bump, single incremental
// Merkle advance), ONE WAL record carrying the client's exact frame
// bytes, its fsync, then the dedup entry. raw is b's encoding as
// received. A nil, nil return means the batch is applied and durable
// (now, or by an earlier attempt) and may be acknowledged.
func (s *Service) commitUpdate(h *hosted, raw []byte, b *wire.UpdateBatch) (applyErr, persistErr error) {
	h.mu.Lock()
	if h.retired {
		h.mu.Unlock()
		return errReplaced, nil
	}
	if b.RequestID != 0 && h.seen[b.RequestID] {
		// A retry of a batch we already committed: acknowledge
		// without re-applying.
		h.mu.Unlock()
		s.dedupHits.Add(1)
		return nil, nil
	}
	t0 := time.Now()
	applyErr = h.srv.ApplyUpdateBatch(b.Updates)
	h.updApplyNs.Add(int64(time.Since(t0)))
	if applyErr != nil {
		h.mu.Unlock()
		return applyErr, nil
	}
	h.noteCommit(len(b.Updates))
	var tk *walog.Ticket
	if h.dur != nil {
		// Stage the WAL record while still holding the update lock, so
		// records enter the log in commit order; the fsync wait happens
		// outside the lock so one commit's disk latency doesn't
		// serialize the next commit's apply.
		tk, persistErr = s.stageDurable(h, raw)
	}
	h.mu.Unlock()
	if persistErr == nil {
		t1 := time.Now()
		persistErr = s.ensureDurable(h, tk)
		h.updFsyncNs.Add(int64(time.Since(t1)))
	}
	// Durability ordering: the request ID enters the dedup table only
	// after the batch is durable (WAL fsynced or checkpoint written).
	// Recording it before would let a failed persist + client retry be
	// dedup-acked without re-persisting — the client believes the
	// update durable while the disk still holds the old state.
	// (Updates are idempotent — whole-band index replacement, same
	// ciphertexts — so the retry's re-apply is harmless.)
	if persistErr == nil && b.RequestID != 0 {
		h.mu.Lock()
		h.rememberLocked(b.RequestID)
		h.mu.Unlock()
	}
	return nil, persistErr
}

// noteCommit records a committed batch of n updates in the stats
// counters.
func (h *hosted) noteCommit(n int) {
	if n == 1 {
		h.updSingles.Add(1)
		return
	}
	h.updBatches.Add(1)
	h.updBatched.Add(int64(n))
	for {
		cur := h.updMaxBatch.Load()
		if int64(n) <= cur || h.updMaxBatch.CompareAndSwap(cur, int64(n)) {
			return
		}
	}
}

// setPlanHeaders echoes the planner's chosen strategy and cost
// estimate out-of-band: answer bytes are strategy-independent by the
// planner's contract, so observability rides in headers, not frames.
func setPlanHeaders(w http.ResponseWriter, ans *wire.Answer) {
	if ans.PlanStrategy != "" {
		w.Header().Set(wire.HeaderPlanStrategy, ans.PlanStrategy)
		w.Header().Set(wire.HeaderPlanCost, strconv.FormatInt(ans.PlanCost, 10))
	}
}

func (s *Service) handleStats(w http.ResponseWriter, h *hosted) {
	stats := map[string]any{
		"overload":     s.adm().Snapshot(),
		"blocks":       h.srv.NumBlocks(),
		"indexEntries": h.srv.IndexSize(),
		"generation":   h.srv.Generation(),
		"caches":       h.srv.CacheStats(),
		"planner":      h.srv.PlannerStats(),
		"synopsis":     h.srv.Synopsis(),
		"stream": map[string]int64{
			"answers": h.streamAnswers.Load(),
			"bytes":   h.streamBytes.Load(),
			"chunks":  h.streamChunks.Load(),
		},
		"updates": map[string]int64{
			"batches":  h.updBatches.Load(),
			"batched":  h.updBatched.Load(),
			"singles":  h.updSingles.Load(),
			"maxBatch": h.updMaxBatch.Load(),
			"applyNs":  h.updApplyNs.Load(),
			"fsyncNs":  h.updFsyncNs.Load(),
		},
	}
	if h.dur != nil {
		h.mu.Lock()
		dur := map[string]any{
			"degraded":        h.dur.degraded,
			"walBytes":        h.dur.walSize(),
			"sinceCheckpoint": h.dur.sinceCheckpoint,
			"persistFailures": h.persistFailures.Load(),
			"diskFull":        h.diskFullFailures.Load(),
		}
		if h.dur.wal != nil {
			// Group-commit amortization in one number: acknowledged
			// records over fsyncs actually performed.
			dur["walSyncs"] = h.dur.wal.Syncs()
		}
		stats["durability"] = dur
		h.mu.Unlock()
	}
	if h.recovery != nil {
		stats["recovery"] = *h.recovery
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(stats)
}

// CacheStats snapshots the cross-query cache counters of every
// hosted database, keyed by database name then cache name (cmd/xserve
// publishes this via expvar under /debug/vars).
func (s *Service) CacheStats() map[string]map[string]gencache.Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(map[string]map[string]gencache.Stats, len(s.dbs))
	for name, h := range s.dbs {
		out[name] = h.srv.CacheStats()
	}
	return out
}

// RegisterLocal hosts a database in the service without going over
// the network, round-tripping through the wire format so exactly the
// uploadable bytes are served (used by cmd/xserve's demo mode).
func (s *Service) registerLocal(name string, db *wire.HostedDB) error {
	data, err := wire.MarshalDB(db)
	if err != nil {
		return err
	}
	decoded, err := wire.UnmarshalDB(data)
	if err != nil {
		return err
	}
	return s.publish(name, newHosted(server.New(decoded)))
}

// RegisterLocal is the exported form of registerLocal.
func RegisterLocal(s *Service, name string, db *wire.HostedDB) error {
	return s.registerLocal(name, db)
}

// Client is the owner-side transport: a core.Backend whose calls
// travel over HTTP to a Service, with per-attempt timeouts, retries
// and a circuit breaker.
type Client struct {
	base string // e.g. http://host:8080
	name string
	http *http.Client

	retry   RetryPolicy
	timeout time.Duration // per-attempt bound; 0 = none
	breaker *breaker      // nil = disabled

	// maxResp caps how many response-body bytes any operation will
	// read; 0 selects the maxUpload default (see WithMaxResponseBytes).
	maxResp int64

	// verifier, when set via WithVerifier, checks every answer
	// against the owner's Merkle root inside the attempt — before the retry policy classifies the error — so a
	// tampered response fails immediately (no retry, breaker tripped)
	// rather than being mistaken for a transient fault.
	verifier wire.Verifier

	rngMu sync.Mutex
	rng   *rand.Rand // backoff jitter
}

// Dial points a client at a service's database. It does not touch
// the network until the first call. The returned client retries
// under DefaultRetryPolicy with DefaultBreakerConfig; use the With*
// methods to reconfigure (WithRetry(NoRetry) restores the old
// fail-on-first-error behavior).
func Dial(baseURL, name string) *Client {
	return &Client{
		base:    strings.TrimRight(baseURL, "/"),
		name:    name,
		http:    http.DefaultClient,
		retry:   DefaultRetryPolicy,
		breaker: newBreaker(DefaultBreakerConfig),
		rng:     rand.New(rand.NewSource(time.Now().UnixNano())),
	}
}

// WithHTTPClient substitutes the underlying *http.Client (timeouts,
// TLS configuration, test transports).
func (c *Client) WithHTTPClient(hc *http.Client) *Client {
	c.http = hc
	return c
}

// WithRetry replaces the retry policy.
func (c *Client) WithRetry(p RetryPolicy) *Client {
	c.retry = p
	return c
}

// WithTimeout bounds each individual attempt (the retry budget and
// the caller's context bound the whole operation).
func (c *Client) WithTimeout(d time.Duration) *Client {
	c.timeout = d
	return c
}

// WithBreaker replaces the circuit breaker configuration; a zero
// FailureThreshold disables the breaker.
func (c *Client) WithBreaker(cfg BreakerConfig) *Client {
	if cfg.FailureThreshold <= 0 {
		c.breaker = nil
	} else {
		c.breaker = newBreaker(cfg)
	}
	return c
}

// WithStreaming does nothing: every query answer is an SXS1 stream,
// which the client always decodes incrementally. It remains only so
// that existing callers keep compiling.
func (c *Client) WithStreaming(bool) *Client { return c }

// stampDeadline attaches the overload-protocol request header: the
// remaining deadline budget (relative milliseconds, so clock skew
// between the hosts cannot corrupt it).
func stampDeadline(ctx context.Context, req *http.Request) {
	if dl, ok := ctx.Deadline(); ok {
		ms := time.Until(dl).Milliseconds()
		if ms < 1 {
			ms = 1 // expired budgets still propagate; the server rejects them
		}
		req.Header.Set(wire.HeaderDeadlineMS, strconv.FormatInt(ms, 10))
	}
}

// WithMaxResponseBytes caps how many response-body bytes the client
// will read on any operation; a
// body that would exceed the cap surfaces as ErrResponseTooLarge
// instead of being read without bound. n <= 0 restores the default
// (1 GiB).
func (c *Client) WithMaxResponseBytes(n int64) *Client {
	c.maxResp = n
	return c
}

// respLimit resolves the response-body cap.
func (c *Client) respLimit() int64 {
	if c.maxResp > 0 {
		return c.maxResp
	}
	return maxUpload
}

// WithVerifier installs the owner's integrity verifier: every answer
// is checked against its Merkle root inside the attempt that fetched
// it. The instance is shared with
// core.System (typically its live verifier ring), so owner updates
// (which advance the root) are visible here without re-dialing. The
// ring is a wire.ContextVerifier: it reads the read's pinned floor
// from the attempt's context, so this is the answer's one check — at
// the reader's floor, in the transport; core checks only what did
// not pass through it.
func (c *Client) WithVerifier(v wire.Verifier) *Client {
	c.verifier = v
	return c
}

// withJitterSeed pins the backoff jitter source (tests).
func (c *Client) withJitterSeed(seed int64) *Client {
	c.rng = rand.New(rand.NewSource(seed))
	return c
}

func (c *Client) url(action string) string {
	u := c.base + "/db/" + c.name
	if action != "" {
		u += "/" + action
	}
	return u
}

// do runs one logical operation through the breaker and the retry
// loop. attempt is called with a per-attempt context and must be
// safe to call again after a failure.
func (c *Client) do(ctx context.Context, op string, attempt func(ctx context.Context) error) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := c.preflight(ctx); err != nil {
		return err
	}
	if c.retry.Budget > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.retry.Budget)
		defer cancel()
	}
	attempts := c.retry.MaxAttempts
	if attempts < 1 {
		attempts = 1
	}
	var err error
	for i := 0; i < attempts; i++ {
		if i > 0 {
			c.rngMu.Lock()
			d := c.retry.delay(i, c.rng)
			c.rngMu.Unlock()
			// A shed server said when it expects capacity (computed
			// from its queue drain rate): waiting less than that only
			// donates another rejection to its load. Honor the larger
			// of the hint and our own backoff — but never a hint the
			// remaining retry budget or caller deadline cannot cover;
			// then the operation is out of time and retrying is noise.
			var se *StatusError
			if errors.As(err, &se) && se.RetryAfter > d {
				d = se.RetryAfter
			}
			if dl, ok := ctx.Deadline(); ok && d >= time.Until(dl) {
				break
			}
			if sleepErr := sleep(ctx, d); sleepErr != nil {
				break // budget or caller deadline exhausted mid-backoff
			}
		}
		actx := ctx
		var cancel context.CancelFunc
		if c.timeout > 0 {
			actx, cancel = context.WithTimeout(ctx, c.timeout)
		}
		err = attempt(actx)
		if cancel != nil {
			cancel()
		}
		if err == nil {
			c.breaker.record(true)
			return nil
		}
		if ctx.Err() != nil {
			break // the operation as a whole is out of time
		}
		// A deadline here is the per-attempt timeout (the parent is
		// alive): a slow attempt, worth retrying.
		if !retryable(err) && !isDeadline(err) {
			break
		}
	}
	c.breaker.record(false)
	if errors.Is(err, authtree.ErrTampered) {
		// A byzantine server is worse than a dead one: open the
		// breaker now instead of waiting for the failure threshold.
		c.breaker.trip()
	}
	if err == nil {
		err = ctx.Err()
	}
	var se *StatusError
	if errors.As(err, &se) {
		return err // already carries op + status + body
	}
	return fmt.Errorf("remote: %s: %w", op, err)
}

func isDeadline(err error) bool {
	return errors.Is(err, context.DeadlineExceeded)
}

// request performs one HTTP exchange: build, send, read the capped
// body. It returns the status code, body and response headers; err
// covers transport and read failures only (non-2xx statuses are the
// caller's to interpret).
func (c *Client) request(ctx context.Context, method, url string, payload []byte) (int, []byte, http.Header, error) {
	var body io.Reader
	if payload != nil {
		body = bytes.NewReader(payload)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, body)
	if err != nil {
		return 0, nil, nil, err
	}
	if payload != nil {
		req.Header.Set("Content-Type", "application/octet-stream")
	}
	stampDeadline(ctx, req)
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		// Error bodies are only ever quoted in a StatusError: don't
		// let a hostile server feed us more than we would keep.
		data, err := io.ReadAll(io.LimitReader(resp.Body, maxErrBody))
		return resp.StatusCode, data, resp.Header, err
	}
	data, err := io.ReadAll(&cappedReader{r: resp.Body, n: c.respLimit()})
	return resp.StatusCode, data, resp.Header, err
}

// cappedReader reads at most n bytes from r; a body that keeps going
// past the cap surfaces as ErrResponseTooLarge (a body ending exactly
// at the cap still reads its clean EOF).
type cappedReader struct {
	r io.Reader
	n int64
}

func (c *cappedReader) Read(p []byte) (int, error) {
	if c.n <= 0 {
		var tiny [1]byte
		n, err := c.r.Read(tiny[:])
		if n > 0 {
			return 0, ErrResponseTooLarge
		}
		if err == nil {
			err = ErrResponseTooLarge
		}
		return 0, err
	}
	if int64(len(p)) > c.n {
		p = p[:c.n]
	}
	n, err := c.r.Read(p)
	c.n -= int64(n)
	return n, err
}

// countingReader counts the bytes read through it (stream transfer
// accounting) and keeps the first read error other than a clean EOF.
type countingReader struct {
	r   io.Reader
	n   int64
	err error
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	if err != nil && err != io.EOF && c.err == nil {
		c.err = err
	}
	return n, err
}

func statusError(op string, code int, body []byte, hdr http.Header) *StatusError {
	b := body
	if len(b) > maxErrBody {
		b = b[:maxErrBody]
	}
	se := &StatusError{
		Op:     op,
		Code:   code,
		Status: fmt.Sprintf("%d %s", code, http.StatusText(code)),
		Body:   strings.TrimSpace(string(b)),
	}
	// A server shed carries its computed backoff hint; surface it so
	// the retry loop can honor it (delta-seconds form only — this
	// protocol never sends the HTTP-date form).
	if hdr != nil {
		if secs, err := strconv.Atoi(hdr.Get("Retry-After")); err == nil && secs > 0 {
			se.RetryAfter = time.Duration(secs) * time.Second
		}
	}
	return se
}

// Ping checks the service's liveness endpoint. It bypasses retry and
// breaker (it is what the breaker's half-open probe calls).
func (c *Client) Ping(ctx context.Context) error {
	status, body, hdr, err := c.request(ctx, http.MethodGet, c.base+"/healthz", nil)
	if err != nil {
		return fmt.Errorf("remote: ping: %w", err)
	}
	if status != http.StatusOK {
		return statusError("ping", status, body, hdr)
	}
	return nil
}

// Upload sends a hosted database to the service. Uploads are
// idempotent full-state PUTs, so they retry like reads.
func (c *Client) Upload(ctx context.Context, db *wire.HostedDB) error {
	data, err := wire.MarshalDB(db)
	if err != nil {
		return err
	}
	return c.do(ctx, "upload", func(ctx context.Context) error {
		status, body, hdr, err := c.request(ctx, http.MethodPut, c.url(""), data)
		if err != nil {
			return err
		}
		if status != http.StatusCreated {
			return statusError("upload", status, body, hdr)
		}
		return nil
	})
}

// Execute implements core.Backend over HTTP: it decodes the SXS1
// answer and returns stats describing the transfer.
//
// A stream that dies mid-body surfaces as a torn read and the whole
// attempt is retried, so the caller never sees a truncated answer.
// Every attempt's answer is verified (WithVerifier) before it is
// returned, a retried attempt's included; a verification failure is
// terminal.
func (c *Client) Execute(ctx context.Context, q *wire.Query) (*wire.Answer, *wire.StreamStats, error) {
	data, err := wire.MarshalQuery(q)
	if err != nil {
		return nil, nil, err
	}
	var ans *wire.Answer
	var stats *wire.StreamStats
	err = c.do(ctx, "query", func(ctx context.Context) error {
		a, st, err := c.queryAttempt(ctx, data)
		if err != nil {
			return err
		}
		if vErr := c.verifyAnswer(ctx, a); vErr != nil {
			return vErr
		}
		ans, stats = a, st
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return ans, stats, nil
}

// verifyAnswer checks an answer inside its attempt. A ContextVerifier
// gets the attempt's context, which carries the floor of the read the
// query belongs to, so this is the strict check and the only one.
func (c *Client) verifyAnswer(ctx context.Context, a *wire.Answer) error {
	switch v := c.verifier.(type) {
	case nil:
		return nil
	case wire.ContextVerifier:
		return v.VerifyAnswerContext(ctx, a)
	default:
		return v.VerifyAnswer(a)
	}
}

// queryAttempt performs one query exchange and decodes its SXS1
// answer.
func (c *Client) queryAttempt(ctx context.Context, payload []byte) (*wire.Answer, *wire.StreamStats, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.url("query"), bytes.NewReader(payload))
	if err != nil {
		return nil, nil, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	stampDeadline(ctx, req)
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, maxErrBody))
		return nil, nil, statusError("query", resp.StatusCode, body, resp.Header)
	}
	cr := &countingReader{r: &cappedReader{r: resp.Body, n: c.respLimit()}}
	a, err := wire.DecodeStreamAnswer(cr, nil)
	if err != nil {
		if cr.err == nil {
			// The body arrived whole but is not a well-formed stream. Its
			// checksum sits in the trailer, so damage before it shows up
			// as a malformed frame: the same class as a trailer mismatch.
			err = fmt.Errorf("%w: %w", ErrChecksum, err)
		}
		return nil, nil, err
	}
	readPlanHeaders(resp, a)
	return a, &wire.StreamStats{
		Bytes:  int(cr.n),
		Chunks: len(a.Fragments) + len(a.Blocks) + 1,
	}, nil
}

// readPlanHeaders copies the service's out-of-band planner report
// into the decoded answer (the fields never marshal; on the remote
// path they ride the X-Plan-* headers instead).
func readPlanHeaders(resp *http.Response, a *wire.Answer) {
	if strat := resp.Header.Get(wire.HeaderPlanStrategy); strat != "" {
		a.PlanStrategy = strat
		if c, err := strconv.ParseInt(resp.Header.Get(wire.HeaderPlanCost), 10, 64); err == nil {
			a.PlanCost = c
		}
	}
}

// ApplyUpdateBatch implements core.Backend over HTTP: it sends one or
// more owner updates as the one update frame, which the service
// applies atomically — one generation bump, one incremental Merkle
// advance, one WAL record and fsync for the whole batch. A zero
// request ID is replaced with a fresh random one so retries of this
// call are deduplicated server-side.
//
// It states the outcome. nil: committed. An error wrapping
// wire.ErrUpdateInDoubt: some attempt may have landed and none was
// acknowledged — the request reached the HTTP client and no status
// came back, or the service answered a 5xx other than 504 (it applies
// an update before it persists it). An error wrapping
// wire.ErrUpdateRejected: no attempt may have landed and the service
// refused the batch after its dedup lookup (a 422: not committed
// before, and its apply failed). Any other error: this call applied
// nothing — every attempt was turned away before the lookup (another
// 4xx, or a 504 for a deadline it could not meet), or nothing was sent
// (the context had ended, the breaker was open, marshalling failed).
func (c *Client) ApplyUpdateBatch(ctx context.Context, b *wire.UpdateBatch) error {
	if b.RequestID == 0 {
		b.RequestID = wire.NewRequestID()
	}
	data, err := wire.MarshalUpdateBatch(b)
	if err != nil {
		return err
	}
	inDoubt, rejected := false, false
	err = c.do(ctx, "update", func(ctx context.Context) error {
		status, body, hdr, err := c.request(ctx, http.MethodPost, c.url("update"), data)
		switch {
		case status == http.StatusOK:
			// The service acknowledges only a committed, durable batch;
			// a torn empty body after that status changes nothing.
			return nil
		case status == 0:
			inDoubt = true
			return err
		case status == http.StatusUnprocessableEntity:
			rejected = true
		case status != http.StatusGatewayTimeout && (status < 400 || status > 499):
			inDoubt = true
		}
		return statusError("update", status, body, hdr)
	})
	switch {
	case err == nil:
		return nil
	case inDoubt:
		return fmt.Errorf("%w (%w)", err, wire.ErrUpdateInDoubt)
	case rejected:
		return fmt.Errorf("%w (%w)", err, wire.ErrUpdateRejected)
	}
	return err
}
