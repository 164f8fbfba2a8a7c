package server

import (
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"fmt"

	"repro/internal/gencache"
	"repro/internal/wire"
	"repro/internal/xpath"
)

// Cross-query caching. Three caches carry work across requests, all
// keyed under the server's (epoch, generation) pair and invalidated
// wholesale when an applied update bumps the generation (see
// gencache for the invalidation contract):
//
//   - plans: SXQ frame fingerprint -> compiled plan (the parsed
//     query plus the traversal skeleton computed once per distinct
//     query: anchor lift depth, per-predicate range-cache keys and
//     decoded literals, per-step candidate lists).
//   - ranges: value-predicate fingerprint -> the set of blocks whose
//     indexed ciphertexts fall in the predicate's OPESS ranges. This
//     replaces the old per-request cache keyed on *PredValue pointer
//     identity, which was only correct because plans died with their
//     request; a pointer key on a cached plan would keep answering
//     from the index state of the generation that first resolved it.
//   - answers: SXQ frame fingerprint -> the complete answer
//     envelope, serving repeated identical queries without touching
//     the matcher at all.
//
// Plans and range sets are structurally generation-independent in
// today's update model (updates preserve structure and only the
// value index moves), but the range sets genuinely change with the
// index and the conservative wholesale rule keeps all three caches
// on the same, easily-audited invariant: nothing cached survives an
// update.
type queryCaches struct {
	plans   *gencache.Cache
	ranges  *gencache.Cache
	answers *gencache.Cache
}

func newQueryCaches() *queryCaches {
	return &queryCaches{
		plans:   gencache.New(512, 8<<20),
		ranges:  gencache.New(4096, 32<<20),
		answers: gencache.New(256, 128<<20),
	}
}

// plan is a compiled query: the parsed frame plus everything the
// matcher derives from its shape (not from the db state) — safe to
// share across concurrent queries because it is read-only after
// compilation.
type plan struct {
	q    *wire.Query
	lift int
	// preds maps each value predicate of the plan to what its
	// per-candidate evaluation reads (see predPlan), so the hot path
	// does a pointer lookup instead of hashing or parsing.
	preds map[*wire.PredValue]predPlan
	// subLists holds the full table lists of every predicate sub-path
	// step (the synopsis does not restrict them), resolved once here
	// instead of once per candidate the predicate is evaluated at.
	subLists map[*wire.QStep][][]int32
	// predOrder holds the planner's per-step predicate evaluation
	// order (cheap/selective first) for steps where it differs from
	// the query's; the query itself is never mutated (see planner.go).
	predOrder map[*wire.QStep][]wire.QPred
	// steps holds, per main-path step, the candidate lists and the
	// capacity estimate the matcher uses: the synopsis-restricted
	// lists where the class-set pass pruned, the full table lists
	// otherwise (see planSteps). pruned counts the intervals removed.
	steps  map[*wire.QStep]stepPlan
	pruned int
	// cost is the admission estimate derived from the plan (one cost
	// currency: EstimateFrameCost returns exactly this).
	cost int64
}

// predPlan is a value predicate compiled once per plan: its
// range-cache fingerprint and its literal decoded for comparison.
type predPlan struct {
	fp  string
	lit xpath.Value
}

// compilePlan compiles a query against a pinned snapshot: shape-only
// work (lift depth, predicate fingerprints and literals) plus the
// candidate lists of every step and the cost model. Plans are cached
// per (epoch, generation), so baking snapshot-derived lists and
// estimates in is safe — an update invalidates them wholesale. A probe has no steps to
// plan: its plan is the parsed frame at cost 1.
func compilePlan(sn *snapshot, q *wire.Query) *plan {
	if q.Probe != nil {
		return &plan{q: q, cost: 1}
	}
	pl := &plan{
		q:         q,
		lift:      liftDepth(q),
		preds:     map[*wire.PredValue]predPlan{},
		subLists:  map[*wire.QStep][][]int32{},
		predOrder: map[*wire.QStep][]wire.QPred{},
	}
	for st := q.First; st != nil; st = st.Next {
		pl.collectPreds(sn, st.Preds)
	}
	pl.steps, pl.pruned = planSteps(sn, q)
	orderPreds(sn.index, q, pl.predOrder)
	pl.cost = estimateCost(sn, pl.steps[q.First].est, pl.preds)
	return pl
}

// strategy is the label Answer.PlanStrategy and /stats report — pure
// observability, computed, never chosen: "twig" when the synopsis
// removed at least one candidate interval from the main path,
// "pairwise" when the joins ran over the full table lists.
func (pl *plan) strategy() string {
	if pl.pruned > 0 {
		return "twig"
	}
	return "pairwise"
}

// collectPreds compiles every value predicate under preds and
// resolves the table lists of every predicate sub-path step.
func (pl *plan) collectPreds(sn *snapshot, preds []wire.QPred) {
	var walk func(p wire.QPred)
	walkStep := func(st *wire.QStep) {
		for ; st != nil; st = st.Next {
			pl.subLists[st] = sn.labelLists(st.Labels)
			for _, p := range st.Preds {
				walk(p)
			}
		}
	}
	walk = func(p wire.QPred) {
		switch v := p.(type) {
		case *wire.PredValue:
			pl.preds[v] = predPlan{fp: predFingerprint(v), lit: xpath.DecodeValue(v.Lit)}
			walkStep(v.Path)
		case *wire.PredExists:
			walkStep(v.Path)
		case *wire.PredAnd:
			walk(v.L)
			walk(v.R)
		case *wire.PredOr:
			walk(v.L)
			walk(v.R)
		case *wire.PredNot:
			walk(v.E)
		}
	}
	for _, p := range preds {
		walk(p)
	}
}

// predFingerprint keys a value predicate's range resolution: the
// resolved block set depends only on the ciphertext ranges (and the
// index generation, carried by the cache), so the key is exactly the
// range list.
func predFingerprint(v *wire.PredValue) string {
	buf := make([]byte, 0, 1+16*len(v.Ranges))
	buf = append(buf, 'R')
	var tmp [16]byte
	for _, r := range v.Ranges {
		binary.BigEndian.PutUint64(tmp[:8], r.Lo)
		binary.BigEndian.PutUint64(tmp[8:], r.Hi)
		buf = append(buf, tmp[:]...)
	}
	return string(buf)
}

// frameFingerprint keys the plan and answer caches by the marshaled
// query bytes — the canonical form both the local and the remote
// path share.
func frameFingerprint(data []byte) string {
	sum := sha256.Sum256(data)
	return string(sum[:])
}

// newEpoch draws the server's boot nonce. It is the restart detector
// of the caching layer: a client that cached blocks under one epoch
// and sees answers arrive under another knows it is talking to a
// different server incarnation (fresh upload, rollback from disk)
// and drops everything. Always non-zero, so generation-echoing
// answers are distinguishable from legacy frames.
func newEpoch() uint64 {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("server: epoch nonce: %v", err))
	}
	return binary.BigEndian.Uint64(b[:]) | 1
}

// Generation returns the current db generation (starts at 1, bumped
// by every applied update). Like every read it pins the committed
// snapshot; the counter lives inside it.
func (s *Server) Generation() uint64 {
	return s.current().gen
}

// Epoch returns the server's boot nonce.
func (s *Server) Epoch() uint64 { return s.epoch }

// RestoreGeneration fast-forwards the generation counter to gen, the
// value a durable snapshot captured, so that replayed WAL updates
// re-commit at the generations they originally acknowledged and the
// recovered server resumes exactly where the crashed one stopped. A
// re-upload also calls it, to continue the name's count. Only those
// may call it, before the server takes traffic; moving the counter
// backwards is refused (caches key on it).
func (s *Server) RestoreGeneration(gen uint64) {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	cur := s.current()
	if gen <= cur.gen {
		return
	}
	// snapshot embeds a mutex, so republish a fresh struct sharing the
	// immutable parts instead of copying the old one by value.
	next := &snapshot{gen: gen, db: cur.db, index: cur.index, st: cur.st}
	cur.authMu.Lock()
	next.auth = cur.auth
	cur.authMu.Unlock()
	s.snap.Store(next)
}

// CacheStats snapshots the hit/miss/eviction counters of every
// cross-query cache (exported via expvar by cmd/xserve).
func (s *Server) CacheStats() map[string]gencache.Stats {
	return map[string]gencache.Stats{
		"plans":   s.caches.plans.Stats(),
		"ranges":  s.caches.ranges.Stats(),
		"answers": s.caches.answers.Stats(),
	}
}

// SetCaching turns the cross-query caches on (the default) or off.
// Off means every query takes the cold path — parse, plan, resolve,
// match; turning caching off also drops everything currently cached.
func (s *Server) SetCaching(on bool) {
	s.cachingOff.Store(!on)
	if !on {
		s.caches.plans.Clear()
		s.caches.ranges.Clear()
		s.caches.answers.Clear()
	}
}

// copyAnswer returns an Answer the caller may hold across cache
// invalidation: fresh slice headers over the shared immutable
// payload bytes (block ciphertexts are replaced wholesale by
// updates, never mutated — the same aliasing discipline assemble
// already relies on).
func copyAnswer(a *wire.Answer) *wire.Answer {
	cp := *a
	if a.Fragments != nil {
		cp.Fragments = append([][]byte(nil), a.Fragments...)
	}
	if a.BlockIDs != nil {
		cp.BlockIDs = append([]int(nil), a.BlockIDs...)
	}
	if a.Blocks != nil {
		cp.Blocks = append([][]byte(nil), a.Blocks...)
	}
	return &cp
}
