package attack

import (
	"context"
	"sync"

	"repro/internal/core"
	"repro/internal/wire"
)

// TamperBackend is a byzantine hosting provider: it forwards every
// call to a real backend but can mutate or replay answers on the way
// back. The other files in this package attack confidentiality (what
// a curious server can infer); this one attacks integrity and
// freshness — what an actively malicious server can make the client
// accept. With the owner's Merkle commitment enabled
// (core.System.EnableIntegrity), every mutation modeled here must be
// caught client-side as authtree.ErrTampered before decryption.
type TamperBackend struct {
	Inner core.Backend

	mu sync.Mutex
	// mutate, when set, is applied to every live answer before it is
	// returned — dropping blocks, swapping ciphertexts, stripping
	// proofs.
	mutate func(*wire.Answer)
	// replay, when set, is returned for every Execute instead of the
	// live answer: the rollback attack, serving a stale-but-once-valid
	// answer after the owner has updated.
	replay *wire.Answer
	// record keeps a deep copy of the next live answer for later
	// replay.
	record bool
	// recorded is the snapshot taken while record was set.
	recorded *wire.Answer
}

// SetMutation installs (or, with nil, removes) an answer mutation.
func (t *TamperBackend) SetMutation(f func(*wire.Answer)) {
	t.mu.Lock()
	t.mutate = f
	t.mu.Unlock()
}

// RecordNext snapshots the next live answer for later replay.
func (t *TamperBackend) RecordNext() {
	t.mu.Lock()
	t.record = true
	t.mu.Unlock()
}

// ReplayRecorded switches the backend into rollback mode: every
// subsequent Execute returns the answer captured by RecordNext. It
// reports false when nothing was recorded.
func (t *TamperBackend) ReplayRecorded() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.recorded == nil {
		return false
	}
	t.replay = t.recorded
	return true
}

// StopTampering returns the backend to honest forwarding.
func (t *TamperBackend) StopTampering() {
	t.mu.Lock()
	t.mutate = nil
	t.replay = nil
	t.mu.Unlock()
}

// copyAnswer deep-copies an answer through its wire encoding so the
// stored snapshot can never alias live server state.
func copyAnswer(a *wire.Answer) *wire.Answer {
	enc, err := wire.MarshalAnswer(a)
	if err != nil {
		return nil
	}
	cp, err := wire.UnmarshalAnswer(enc)
	if err != nil {
		return nil
	}
	return cp
}

// Execute implements core.Backend with the configured tampering.
func (t *TamperBackend) Execute(ctx context.Context, q *wire.Query) (*wire.Answer, *wire.StreamStats, error) {
	t.mu.Lock()
	replay, mutate := t.replay, t.mutate
	t.mu.Unlock()
	if replay != nil {
		return copyAnswer(replay), nil, nil
	}
	ans, st, err := t.Inner.Execute(ctx, q)
	if err != nil {
		return nil, nil, err
	}
	t.mu.Lock()
	if t.record {
		t.recorded = copyAnswer(ans)
		t.record = false
	}
	t.mu.Unlock()
	if mutate != nil {
		mutate(ans)
	}
	return ans, st, nil
}

// ApplyUpdateBatch implements core.Backend (forwarded honestly: the
// rollback attack applies the update, then serves pre-update
// answers). The inner backend's error passes through unchanged, so
// its stated outcome does too.
func (t *TamperBackend) ApplyUpdateBatch(ctx context.Context, b *wire.UpdateBatch) error {
	return t.Inner.ApplyUpdateBatch(ctx, b)
}
