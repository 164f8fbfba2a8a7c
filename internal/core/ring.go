package core

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/authtree"
	"repro/internal/wire"
)

// verifierRing is the owner's integrity commitment, shaped for
// lock-free readers. The old design shared ONE *wire.AuthVerifier and
// advanced it in place under the System's exclusive lock; that only
// worked because readers were excluded for the whole round trip. With
// snapshot reads, an answer can arrive AFTER a concurrent commit
// advanced the root — produced honestly against the generation that
// was current when the server executed it — so the ring keeps the
// current verifier plus a short tail of retired ones and accepts an
// answer that verifies against any of them, newest first.
//
// Freshness is preserved by sequence pinning: every Advance stamps a
// monotonically increasing sequence, and a read records the sequence
// current at its pin. An answer is accepted only against verifiers
// AT LEAST AS NEW as the read's pin (verifyAnswerSince) — so a read
// that pinned before a commit legitimately accepts either side of
// it, while a read that pinned after rejects a replayed pre-commit
// answer outright: the rollback-replay attack stays detected (see
// internal/attack). The read hands its pin to whoever checks the
// answer through its context (answerCheck), so each answer is checked
// once, at that floor. The tail additionally bounds the window to
// ringRetain commits. The update pipeline's own read half runs under
// the System's exclusive lock, where the ring cannot advance, and
// pins the current sequence: it accepts only the current root (or a
// staged one).
//
// No verifier inside the ring is mutated after it is published — an
// update advances a clone — so Verify* calls need no per-verifier
// locking: the ring's RWMutex only guards the slot pointers.
type verifierRing struct {
	mu      sync.RWMutex
	cur     *wire.AuthVerifier
	curSeq  uint64
	retired []ringEntry // oldest first
	// staged is the root the owner computed at prepare time for the
	// one batch whose frame is SENT but not yet acknowledged (nil when
	// none is). The server applies a commit before its response
	// travels back, so an answer can honestly carry the next root an
	// entire round trip before Advance installs it; staging closes
	// that window without waiting. Sound because a staged root is the
	// owner's OWN commitment for an update it chose to send — a server
	// cannot forge an answer into it, only apply the owner's update.
	staged *wire.AuthVerifier
	// checks counts answer passes (probes included), whoever asked for
	// them: core, or a transport holding the ring.
	checks atomic.Uint64
}

// ringEntry is a retired verifier with the sequence it was current
// at.
type ringEntry struct {
	seq uint64
	v   *wire.AuthVerifier
}

// ringRetain bounds the retired tail: how many superseded roots an
// in-flight answer may still verify against.
const ringRetain = 8

// newVerifierRing wraps the initial commitment; v must not be
// mutated by the caller afterwards.
func newVerifierRing(v *wire.AuthVerifier) *verifierRing {
	return &verifierRing{cur: v}
}

// Current returns the verifier of the latest commit, for chaining the
// next update's clone from. Callers mutate the ring only through
// Advance, never the returned verifier.
func (r *verifierRing) Current() *wire.AuthVerifier {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.cur
}

// Advance installs next as the current commitment and retires the
// previous one into the tail; next must not be mutated by the caller
// afterwards.
func (r *verifierRing) Advance(next *wire.AuthVerifier) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.cur != nil {
		r.retired = append(r.retired, ringEntry{seq: r.curSeq, v: r.cur})
	}
	// At most one batch is in flight, so the staged root is next.
	r.staged = nil
	if len(r.retired) > ringRetain {
		r.retired = r.retired[len(r.retired)-ringRetain:]
	}
	r.cur = next
	r.curSeq++
}

// Stage publishes an in-flight commit's root for verification before
// the server's acknowledgment arrives. Call it before the frame is
// handed to the transport — the server cannot apply what it has not
// received, so no honest answer can carry the root earlier; pair with
// Advance (acknowledged) or Unstage (definitely rejected — the server
// never held the root). v must not be mutated afterwards.
func (r *verifierRing) Stage(v *wire.AuthVerifier) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.staged = v
}

// Unstage withdraws a staged root after a definite rejection.
func (r *verifierRing) Unstage(v *wire.AuthVerifier) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.staged == v {
		r.staged = nil
	}
}

// pinSeq returns the sequence of the current commitment; a read
// records it at pin time and verifies with it as the floor. Zero on a
// nil ring (integrity off).
func (r *verifierRing) pinSeq() uint64 {
	if r == nil {
		return 0
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.curSeq
}

// verifySince runs check against the current verifier, the staged
// one and then the retired tail, newest first, skipping entries older
// than minSeq — roots the reader's pin already superseded must not
// resurrect a replayed answer. The first acceptance wins; on total
// failure the CURRENT verifier's error stands — that is the commitment
// the answer should have matched. The verdict depends only on the
// roots the ring holds when the check starts, never on what commits
// while it runs: every commit stages its root before its frame is sent
// (Stage), so an honest answer matches the current, staged or a
// retained root already, and no wait could rescue one that does not.
func (r *verifierRing) verifySince(minSeq uint64, check func(*wire.AuthVerifier) error) error {
	r.mu.RLock()
	cur, staged, tail := r.cur, r.staged, r.retired
	r.mu.RUnlock()
	curErr := check(cur)
	if curErr == nil {
		return nil
	}
	// A staged root is strictly newer than cur, so it satisfies any
	// pin floor.
	if staged != nil && check(staged) == nil {
		return nil
	}
	for i := len(tail) - 1; i >= 0 && tail[i].seq >= minSeq; i-- {
		if check(tail[i].v) == nil {
			return nil
		}
	}
	return curErr
}

// verifyAnswerSince checks an answer with the reader's pinned
// sequence as the acceptance floor.
func (r *verifierRing) verifyAnswerSince(minSeq uint64, ans *wire.Answer) error {
	r.checks.Add(1)
	return r.verifySince(minSeq, func(v *wire.AuthVerifier) error { return v.VerifyAnswer(ans) })
}

// answerCheck is how a read and the check of what it fetched find each
// other. The read puts one in the context it hands the backend, naming
// its ring, its pinned floor and, for a MIN/MAX read, its probe; a
// verifying transport passes that context to VerifyAnswerContext, which
// checks at the floor — and, once the ring has accepted the answer,
// checks what it claims about the probe (wire.CheckProbe) — and records
// the answer it accepted and how long that pass took. Core then checks
// only an answer the carrier does not name (an in-process backend's, a
// transport's with no verifier or another system's ring), through the
// same method. One read, one goroutine: no lock.
type answerCheck struct {
	ring     *verifierRing
	floor    uint64
	probe    *wire.Probe
	accepted *wire.Answer
	took     time.Duration
}

type answerCheckKey struct{}

// withAnswerCheck returns ctx carrying a fresh answerCheck for a read
// at floor, or ctx and nil when integrity is off (a nil ring).
func withAnswerCheck(ctx context.Context, ring *verifierRing, floor uint64, probe *wire.Probe) (context.Context, *answerCheck) {
	if ring == nil {
		return ctx, nil
	}
	ck := &answerCheck{ring: ring, floor: floor, probe: probe}
	return context.WithValue(ctx, answerCheckKey{}, ck), ck
}

// VerifyAnswerContext implements wire.ContextVerifier: one pass over
// ans at the floor of the read whose answerCheck ctx carries for this
// ring, recording the acceptance there, or with no floor when it
// carries none (a check with no owner read behind it).
func (r *verifierRing) VerifyAnswerContext(ctx context.Context, ans *wire.Answer) error {
	ck, _ := ctx.Value(answerCheckKey{}).(*answerCheck)
	if ck == nil || ck.ring != r {
		return r.verifyAnswerSince(0, ans)
	}
	start := time.Now()
	if err := r.verifyAnswerSince(ck.floor, ans); err != nil {
		return err
	}
	if ck.probe != nil {
		if err := wire.CheckProbe(ck.probe, ans); err != nil {
			return err
		}
	}
	ck.accepted, ck.took = ans, time.Since(start)
	return nil
}

// VerifyAnswer implements wire.Verifier: a check with no read behind
// it, hence no floor.
func (r *verifierRing) VerifyAnswer(ans *wire.Answer) error {
	return r.verifyAnswerSince(0, ans)
}

// AnswerChecks reports how many answer passes the ring has made. With
// integrity on, every answer the owner uses costs exactly one.
func (r *verifierRing) AnswerChecks() uint64 { return r.checks.Load() }

// Root implements wire.Verifier: the latest committed root.
func (r *verifierRing) Root() authtree.Digest { return r.Current().Root() }

var _ wire.ContextVerifier = (*verifierRing)(nil)
