package server

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/wire"
	"repro/internal/xpath"
)

// TestAnswerCacheHit: an identical query at the same generation is
// served from the answer cache — one miss on the cold run, one hit on
// the repeat — and both runs return the same answer.
func TestAnswerCacheHit(t *testing.T) {
	c, s := boot(t, "opt")
	tq, err := c.Translate(xpath.MustParse("//patient[.//disease='diarrhea']/pname"))
	if err != nil {
		t.Fatal(err)
	}
	a1, err := s.Execute(tq)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := s.Execute(tq)
	if err != nil {
		t.Fatal(err)
	}
	st := s.CacheStats()
	if st["answers"].Misses != 1 || st["answers"].Hits != 1 {
		t.Errorf("answer cache hits=%d misses=%d, want 1/1",
			st["answers"].Hits, st["answers"].Misses)
	}
	b1, _ := wire.MarshalAnswer(a1)
	b2, _ := wire.MarshalAnswer(a2)
	if !reflect.DeepEqual(b1, b2) {
		t.Errorf("cached answer differs from cold answer")
	}
	if a1.Generation != 1 || a1.Epoch == 0 {
		t.Errorf("answer echo epoch=%d gen=%d, want non-zero epoch and gen 1",
			a1.Epoch, a1.Generation)
	}
}

// TestAnswerCacheReturnsCopies: a caller mutating a served answer's
// slices must not corrupt the cached envelope for the next caller.
func TestAnswerCacheReturnsCopies(t *testing.T) {
	c, s := boot(t, "opt")
	tq, err := c.Translate(xpath.MustParse("//patient"))
	if err != nil {
		t.Fatal(err)
	}
	a1, err := s.Execute(tq)
	if err != nil {
		t.Fatal(err)
	}
	if len(a1.BlockIDs) == 0 {
		t.Skip("no blocks in answer")
	}
	want := a1.BlockIDs[0]
	a1.BlockIDs = append(a1.BlockIDs[:0], -999) // clobber via the served header
	a2, err := s.Execute(tq)
	if err != nil {
		t.Fatal(err)
	}
	if a2.BlockIDs[0] != want {
		t.Errorf("cached answer corrupted by caller mutation: got block %d, want %d",
			a2.BlockIDs[0], want)
	}
}

// TestPlanCacheReusedAcrossGenerations: a generation bump throws the
// compiled plan away with everything else (wholesale invalidation is
// the safety story), so the same frame recompiles once per
// generation, not once per query.
func TestPlanCacheAcrossGenerations(t *testing.T) {
	c, s := boot(t, "opt")
	tq, err := c.Translate(xpath.MustParse("//patient[.//disease='leukemia']"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := s.Execute(tq); err != nil {
			t.Fatal(err)
		}
	}
	st := s.CacheStats()
	if st["plans"].Misses != 1 {
		t.Errorf("plan compiled %d times for one frame, want 1", st["plans"].Misses)
	}
	// An (empty but committed) update bumps the generation…
	if err := s.ApplyUpdateBatch([]*wire.Update{{}}); err != nil {
		t.Fatal(err)
	}
	if got := s.Generation(); got != 2 {
		t.Fatalf("generation after update = %d, want 2", got)
	}
	// …and the same frame now recompiles exactly once more.
	for i := 0; i < 3; i++ {
		if _, err := s.Execute(tq); err != nil {
			t.Fatal(err)
		}
	}
	st = s.CacheStats()
	if st["plans"].Misses != 2 {
		t.Errorf("plan misses after generation bump = %d, want 2", st["plans"].Misses)
	}
	if st["answers"].Invalidations == 0 {
		t.Errorf("answer cache reports no invalidation after generation bump")
	}
}

// TestRangeCacheSharedAcrossFrames: two different queries with the
// same value predicate share one range resolution — the cache keys on
// predicate content (the OPESS ranges), not pointer identity, so the
// second frame's predicate hits even though its *wire.PredValue is a
// different allocation.
func TestRangeCacheSharedAcrossFrames(t *testing.T) {
	c, s := boot(t, "opt")
	q1, err := c.Translate(xpath.MustParse("//patient[.//disease='diarrhea']/pname"))
	if err != nil {
		t.Fatal(err)
	}
	q2, err := c.Translate(xpath.MustParse("//treat[disease='diarrhea']/doctor"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Execute(q1); err != nil {
		t.Fatal(err)
	}
	cold := s.CacheStats()["ranges"]
	if cold.Misses == 0 {
		t.Fatalf("value query resolved no ranges")
	}
	if _, err := s.Execute(q2); err != nil {
		t.Fatal(err)
	}
	warm := s.CacheStats()["ranges"]
	if warm.Hits == 0 {
		t.Errorf("second frame with the same predicate got no range-cache hit (hits=%d misses=%d)",
			warm.Hits, warm.Misses)
	}
}

// TestFrameAndParsedPathsShareCaches: Execute (parsed query) and
// ExecuteFrameCtx (raw frame, the remote path) fingerprint the same
// canonical bytes, so one warms the cache for the other.
func TestFrameAndParsedPathsShareCaches(t *testing.T) {
	c, s := boot(t, "opt")
	tq, err := c.Translate(xpath.MustParse("//patient/pname"))
	if err != nil {
		t.Fatal(err)
	}
	frame, err := wire.MarshalQuery(tq)
	if err != nil {
		t.Fatal(err)
	}
	a1, err := s.Execute(tq)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := s.ExecuteFrameCtx(context.Background(), frame)
	if err != nil {
		t.Fatal(err)
	}
	if st := s.CacheStats(); st["answers"].Hits != 1 {
		t.Errorf("frame path missed the cache warmed by the parsed path (hits=%d)",
			st["answers"].Hits)
	}
	b1, _ := wire.MarshalAnswer(a1)
	b2, _ := wire.MarshalAnswer(a2)
	if !reflect.DeepEqual(b1, b2) {
		t.Errorf("frame and parsed answers differ")
	}
}

// TestStaleRangeNotServedAcrossGenerations is the regression behind
// this cache layer's design: a range resolution computed at
// generation N must not answer at generation N+1. Here the update
// rebuilds the value index with different entries for the same OPESS
// ranges; a cache serving the gen-N block list would ship the wrong
// blocks.
func TestStaleRangeNotServedAcrossGenerations(t *testing.T) {
	c, s := boot(t, "opt")
	tq, err := c.Translate(xpath.MustParse("//patient[.//disease='diarrhea']/pname"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Execute(tq); err != nil { // warm ranges + answer at gen 1
		t.Fatal(err)
	}
	if err := s.ApplyUpdateBatch([]*wire.Update{{}}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Execute(tq); err != nil {
		t.Fatal(err)
	}
	st := s.CacheStats()["ranges"]
	// The gen-2 run must have re-resolved (a miss), not reused gen-1
	// state: every hit so far happened within a single generation.
	if st.Misses < 2 {
		t.Errorf("range resolutions across two generations produced %d misses, want >= 2 (stale reuse?)", st.Misses)
	}
	if st.Invalidations == 0 {
		t.Errorf("range cache reports no invalidation after generation bump")
	}
}
