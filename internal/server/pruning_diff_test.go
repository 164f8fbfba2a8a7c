package server_test

import (
	"bytes"
	"context"
	"fmt"
	"strconv"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/difftest"
	"repro/internal/server"
	"repro/internal/wire"
	"repro/internal/xpath"
)

// TestPruningOnOffIdentical is the planner's soundness contract
// tested mechanically: the synopsis may only narrow the candidate
// lists the one join engine consumes, never change what the surviving
// anchors assemble to. Every query of the difftest corpus, under
// every scheme, runs on a server with the class-set pass pruning and
// on its Unpruned twin (export_test.go); the two answers must be
// byte-identical on the wire — MarshalAnswer includes the Merkle
// proof — and both must verify against the owner's root. Caching is
// off so both sides really execute the matcher.
func TestPruningOnOffIdentical(t *testing.T) {
	seeds := difftest.CorpusSeeds
	if testing.Short() {
		seeds = seeds[:4]
	}
	var pruned atomic.Int64
	t.Cleanup(func() {
		if !t.Failed() && pruned.Load() == 0 {
			t.Error("no corpus query pruned an interval: the differential compared nothing")
		}
	})
	for _, seed := range seeds {
		c := difftest.GenCase(seed)
		t.Run(c.DocName+"/"+strconv.FormatUint(seed, 10), func(t *testing.T) {
			t.Parallel()
			pruned.Add(runPruningCase(t, c))
		})
	}
}

// runPruningCase returns how many intervals the pruning side removed
// over the whole case.
func runPruningCase(t *testing.T, c *difftest.Case) int64 {
	var pruned int64
	for _, name := range difftest.Schemes {
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("seed %d: scheme %s: %s", c.Seed, name, fmt.Sprintf(format, args...))
		}
		sys, err := core.Host(c.Doc, c.SCs, name, []byte(fmt.Sprintf("difftest-%d", c.Seed)))
		if err != nil {
			fail("host (SCs %v): %v", c.SCs, err)
		}
		if err := sys.EnableIntegrity(); err != nil {
			fail("EnableIntegrity: %v", err)
		}
		on := sys.Server.(core.Local).S
		on.SetCaching(false)
		off := on.Unpruned()
		off.SetCaching(false)
		ver := sys.Verifier()
		for _, q := range c.Queries {
			qs, err := sys.Client.Translate(xpath.MustParse(q))
			if err != nil {
				fail("translate %q: %v", q, err)
			}
			qs.WantProof = true
			frame, err := wire.MarshalQuery(qs)
			if err != nil {
				fail("marshal %q: %v", q, err)
			}
			var wires [2][]byte
			for i, srv := range []*server.Server{on, off} {
				side := [2]string{"pruning on", "pruning off"}[i]
				ans, err := srv.ExecuteFrameCtx(context.Background(), frame)
				if err != nil {
					fail("query %q (%s): %v", q, side, err)
				}
				if err := ver.VerifyAnswer(ans); err != nil {
					fail("query %q (%s): proof rejected: %v", q, side, err)
				}
				if wires[i], err = wire.MarshalAnswer(ans); err != nil {
					fail("query %q (%s): marshal answer: %v", q, side, err)
				}
			}
			if !bytes.Equal(wires[0], wires[1]) {
				fail("query %q: answers differ on the wire with pruning on and off (%d vs %d bytes)",
					q, len(wires[0]), len(wires[1]))
			}
		}
		if st := off.PlannerStats(); st.Twig != 0 || st.PrunedIntervals != 0 {
			fail("the unpruned server pruned: %+v", st)
		}
		pruned += on.PlannerStats().PrunedIntervals
	}
	return pruned
}
