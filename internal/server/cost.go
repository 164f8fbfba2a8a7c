package server

import (
	"fmt"

	"repro/internal/wire"
)

// Admission-control support: the server prices queries for the
// overload layer's cost gate (internal/admission). Pricing pins one
// snapshot (no locks) and touches no block bytes — pricing a request
// must stay far cheaper than running it.

// costCeil bounds a single request's estimate so pathological inputs
// cannot produce absurd admission currency; the gate additionally
// clamps to its own capacity.
const costCeil = 1 << 20

// EstimateFrameCost predicts how many hosted blocks the query frame
// will touch, in admission cost units. Since the cost-based planner
// this is exactly the plan's own estimate (see estimateCost in
// planner.go): the first step's candidate count — the surviving
// interval-group count where the synopsis pruned, the full DSI label
// fan-out otherwise — plus the OPESS band occupancy of every
// translated value predicate, read off the snapshot's value index
// (each band's run length). Admission and planning price queries in
// one currency, and pricing a frame compiles (and caches) the very
// plan its execution reuses.
//
// The estimate is intentionally coarse (it prices relative
// displacement, not wall time) and always >= 1. A value-index probe
// ships at most one block and costs 1; so does an unparseable frame,
// which will be rejected cheaply downstream anyway.
func (s *Server) EstimateFrameCost(frame []byte) int64 {
	pl, err := s.planForFrame(s.current(), frame, s.fingerprint(frame), nil)
	if err != nil {
		return 1
	}
	return pl.cost
}

// fingerprint keys the frame in the plan and answer caches; "" while
// caching is off, which every cache user reads as "do not consult".
func (s *Server) fingerprint(frame []byte) string {
	if s.cachingOff.Load() {
		return ""
	}
	return frameFingerprint(frame)
}

// planForFrame resolves (or compiles and caches) the frame's plan
// against the caller's pinned snapshot — the one lookup-or-compile
// pricing and execution share, so pricing a query warms the very plan
// its execution reuses. fp is s.fingerprint(frame); parsed, when the
// caller already holds the decoded frame, saves the re-parse.
func (s *Server) planForFrame(sn *snapshot, frame []byte, fp string, parsed *wire.Query) (*plan, error) {
	if fp != "" {
		if v, ok := s.caches.plans.Get(s.epoch, sn.gen, fp); ok {
			return v.(*plan), nil
		}
	}
	q := parsed
	if q == nil {
		var err error
		if q, err = wire.UnmarshalQuery(frame); err != nil {
			return nil, err
		}
	}
	if q == nil || (q.First == nil && q.Probe == nil) {
		return nil, fmt.Errorf("server: empty query")
	}
	pl := compilePlan(sn, q)
	if fp != "" {
		s.caches.plans.Put(s.epoch, sn.gen, fp, pl, len(frame))
	}
	return pl, nil
}
