package server

import (
	"context"
	"errors"
	"testing"

	"repro/internal/wire"
	"repro/internal/xpath"
)

func frameFor(t *testing.T, c interface {
	Translate(*xpath.Path) (*wire.Query, error)
}, q string) []byte {
	t.Helper()
	tq, err := c.Translate(xpath.MustParse(q))
	if err != nil {
		t.Fatalf("translate %s: %v", q, err)
	}
	frame, err := wire.MarshalQuery(tq)
	if err != nil {
		t.Fatalf("marshal %s: %v", q, err)
	}
	return frame
}

func TestEstimateFrameCost(t *testing.T) {
	c, s := boot(t, "opt")

	point := s.EstimateFrameCost(frameFor(t, c, "/hospital"))
	if point < 1 {
		t.Fatalf("point cost %d < 1", point)
	}
	wild := s.EstimateFrameCost(frameFor(t, c, "//*"))
	if wild < point {
		t.Errorf("wildcard cost %d < labeled cost %d", wild, point)
	}
	// @coverage is OPESS-encrypted, so its comparison translates to
	// ciphertext ranges whose index occupancy must be priced in:
	// strictly above the same path without the predicate.
	pred := s.EstimateFrameCost(frameFor(t, c, "//insurance[@coverage>500]"))
	bare := s.EstimateFrameCost(frameFor(t, c, "//insurance"))
	if pred <= bare {
		t.Errorf("range predicate cost %d not above bare path cost %d", pred, bare)
	}
	if ceil := int64(s.NumBlocks() + 1); wild > ceil {
		t.Errorf("cost %d above hosted-block ceiling %d", wild, ceil)
	}
	if got := s.EstimateFrameCost([]byte("not a frame")); got != 1 {
		t.Errorf("unparseable frame cost = %d, want 1", got)
	}
}

// answerHits reads the answer cache's hit counter.
func answerHits(s *Server) uint64 { return s.CacheStats()["answers"].Hits }

// TestCachedAnswerHitAfterExecution: a repeat of an executed frame is
// served from the answer cache with the live answer's content and
// generation; with caching off the repeat executes again.
func TestCachedAnswerHitAfterExecution(t *testing.T) {
	c, s := boot(t, "opt")
	frame := frameFor(t, c, "//patient")

	live, err := s.ExecuteFrameCtx(context.Background(), frame)
	if err != nil {
		t.Fatalf("execute: %v", err)
	}
	if h := answerHits(s); h != 0 {
		t.Fatalf("cold execution reported %d cache hits", h)
	}
	cached, err := s.ExecuteFrameCtx(context.Background(), frame)
	if err != nil {
		t.Fatalf("repeat execute: %v", err)
	}
	if h := answerHits(s); h != 1 {
		t.Fatalf("repeat after execution: %d cache hits, want 1", h)
	}
	if len(cached.Fragments) != len(live.Fragments) {
		t.Errorf("cached fragments = %d, live = %d", len(cached.Fragments), len(live.Fragments))
	}
	if cached.Generation != live.Generation {
		t.Errorf("cached generation %d != live %d", cached.Generation, live.Generation)
	}

	s.SetCaching(false)
	if _, err := s.ExecuteFrameCtx(context.Background(), frame); err != nil {
		t.Fatalf("execute with caching off: %v", err)
	}
	if h := answerHits(s); h != 1 {
		t.Errorf("answer cache hit with caching disabled (%d hits, want still 1)", h)
	}
	s.SetCaching(true)
}

func TestExecuteFrameCtxCanceled(t *testing.T) {
	c, s := boot(t, "opt")
	s.SetCaching(true)
	frame := frameFor(t, c, "//patient[SSN>100]")

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.ExecuteFrameCtx(ctx, frame); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled execute err = %v, want context.Canceled", err)
	}
	// The abandoned run must not have poisoned the answer cache: the
	// next execution misses, and only the one after that hits.
	if _, err := s.ExecuteFrameCtx(context.Background(), frame); err != nil {
		t.Fatalf("execute after cancel: %v", err)
	}
	if h := answerHits(s); h != 0 {
		t.Errorf("canceled execution left a cached answer (%d hits)", h)
	}
	if _, err := s.ExecuteFrameCtx(context.Background(), frame); err != nil {
		t.Fatalf("repeat execute: %v", err)
	}
	if h := answerHits(s); h != 1 {
		t.Errorf("successful execution did not cache (%d hits)", h)
	}
}

// TestProbeFrame: a MIN/MAX probe is a query frame priced at 1 that
// bumps no planner counter and answers with the extreme's block alone,
// proved by the probed bands when asked; an inverted range is refused.
func TestProbeFrame(t *testing.T) {
	_, s := boot(t, "opt")
	for _, max := range []bool{false, true} {
		q := &wire.Query{WantProof: true, Probe: &wire.Probe{Lo: 0, Hi: ^uint64(0), Max: max}}
		frame, err := wire.MarshalQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		if c := s.EstimateFrameCost(frame); c != 1 {
			t.Errorf("max=%v: probe priced at %d, want 1", max, c)
		}
		before := s.PlannerStats()
		ans, err := s.ExecuteFrameCtx(context.Background(), frame)
		if err != nil {
			t.Fatalf("max=%v: %v", max, err)
		}
		if after := s.PlannerStats(); after != before {
			t.Errorf("max=%v: probe moved the planner counters %+v -> %+v", max, before, after)
		}
		want, _ := s.current().index.First(0, ^uint64(0))
		if max {
			want, _ = s.current().index.Last(0, ^uint64(0))
		}
		if len(ans.Fragments) != 0 || len(ans.BlockIDs) != 1 || ans.BlockIDs[0] != want.BlockID {
			t.Fatalf("max=%v: %d fragments, blocks %v; want block %d alone", max, len(ans.Fragments), ans.BlockIDs, want.BlockID)
		}
		st, err := wire.BuildAuthState(s.CurrentDB())
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Verifier().VerifyAnswer(ans); err != nil {
			t.Fatalf("max=%v: probe proof: %v", max, err)
		}
		if err := wire.CheckProbe(q.Probe, ans); err != nil {
			t.Fatalf("max=%v: probe check: %v", max, err)
		}
	}
	if _, err := s.Execute(&wire.Query{Probe: &wire.Probe{Lo: 2, Hi: 1}}); err == nil {
		t.Error("inverted probe range answered")
	}
}
