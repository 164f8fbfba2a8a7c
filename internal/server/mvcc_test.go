package server

import (
	"bytes"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/wire"
	"repro/internal/xpath"
)

// MVCC contract tests: queries pin immutable snapshots, updates
// publish new ones, and nothing a reader holds is ever written to.
// All three run under `go test -race` (see the race target in the
// Makefile): the assertions below catch semantic mixing, and the race
// detector catches any byte-level violation of the copy-on-write
// discipline.

// blockUpdate builds a valid single-block replacement frame.
func blockUpdate(id int, fill byte) *wire.Update {
	return &wire.Update{
		Blocks: []wire.BlockUpdate{{ID: id, Ciphertext: []byte{fill, fill, fill, fill}}},
	}
}

// TestNumBlocksRaceWithUpdates is the regression test for the
// unsynchronized NumBlocks read: it used to read len(s.db.Blocks)
// with no lock while ApplyUpdate replaced s.db, a data race the race
// detector flagged. Post-MVCC, NumBlocks reads the pinned snapshot.
func TestNumBlocksRaceWithUpdates(t *testing.T) {
	_, s := boot(t, "opt")
	want := s.NumBlocks()

	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; !stop.Load(); i++ {
			if err := s.ApplyUpdateBatch([]*wire.Update{blockUpdate(i%want, byte(i))}); err != nil {
				t.Errorf("update %d: %v", i, err)
				return
			}
		}
	}()
	for i := 0; i < 5000; i++ {
		if got := s.NumBlocks(); got != want {
			t.Fatalf("NumBlocks = %d mid-update, want %d", got, want)
		}
	}
	stop.Store(true)
	wg.Wait()
}

// TestReturnedBytesImmutableUnderUpdates pins the aliasing contract
// of BlockCiphertext and a value-index probe's answer: the returned
// slices alias the pinned snapshot's blocks, and updates must never
// write into them — a new snapshot gets new slices. A caller can therefore hold the
// bytes indefinitely, with no boundary copy. The race detector
// verifies the "never written" half; the content comparison the
// "still the pre-update bytes" half.
func TestReturnedBytesImmutableUnderUpdates(t *testing.T) {
	_, s := boot(t, "opt")

	held, ok := s.BlockCiphertext(0)
	if !ok {
		t.Fatal("block 0 missing")
	}
	want := append([]byte(nil), held...)
	res, err := s.Execute(&wire.Query{Probe: &wire.Probe{Lo: 0, Hi: ^uint64(0), Max: true}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Blocks) != 1 {
		t.Fatal("extreme probe found nothing")
	}
	extremeHeld := res.Blocks[0]
	extremeWant := append([]byte(nil), extremeHeld...)

	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; !stop.Load(); i++ {
			// Replace every block, including the ones whose old bytes
			// the main goroutine is holding.
			for id := 0; id < s.NumBlocks(); id++ {
				if err := s.ApplyUpdateBatch([]*wire.Update{blockUpdate(id, byte(i))}); err != nil {
					t.Errorf("update: %v", err)
					return
				}
			}
		}
	}()
	// Keep comparing until the writer has demonstrably replaced every
	// block at least twice (generation counts one per ApplyUpdate).
	until := s.Generation() + 2*uint64(s.NumBlocks())
	for s.Generation() < until {
		if !bytes.Equal(held, want) {
			t.Fatal("held BlockCiphertext bytes changed under an update")
		}
		if !bytes.Equal(extremeHeld, extremeWant) {
			t.Fatal("held probe answer bytes changed under an update")
		}
	}
	stop.Store(true)
	wg.Wait()

	// And the server has long since moved on.
	now, ok := s.BlockCiphertext(0)
	if !ok {
		t.Fatal("block 0 missing")
	}
	if bytes.Equal(now, want) {
		t.Fatal("updates never replaced block 0; scenario exercised nothing")
	}
}

// TestSnapshotIsolationLinearizable is the linearizability-style
// isolation check: queries run concurrently with batched updates, and
// every answer must verify against the Merkle root of EXACTLY the
// generation it claims — which a half-applied batch, or an answer
// mixing generation N structure with generation N+1 blocks, cannot
// do (the proof covers fragments, blocks, index bands and the
// structural digest together). The writer maintains the
// per-generation verifier chain; readers verify lock-free.
func TestSnapshotIsolationLinearizable(t *testing.T) {
	c, s := boot(t, "opt")

	st, err := wire.BuildAuthState(s.CurrentDB())
	if err != nil {
		t.Fatal(err)
	}
	var verifiers sync.Map // generation -> *wire.AuthVerifier
	startGen := s.Generation()
	verifiers.Store(startGen, st.Verifier())

	queries := []string{
		"//patient/pname",
		"//patient[age=35]",
		"//patient[pname='Betty']/SSN",
		"//treat/disease",
	}
	translated := make([]*wire.Query, len(queries))
	for i, q := range queries {
		tq, err := c.Translate(xpath.MustParse(q))
		if err != nil {
			t.Fatalf("translate %s: %v", q, err)
		}
		tq.WantProof = true
		translated[i] = tq
	}

	const (
		commits = 40
		readers = 4
		reads   = 150
	)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // the single writer
		defer wg.Done()
		cur, _ := verifiers.Load(startGen)
		v := cur.(*wire.AuthVerifier)
		nb := s.NumBlocks()
		for i := 0; i < commits; i++ {
			batch := []*wire.Update{
				blockUpdate(i%nb, byte(i)),
				blockUpdate((i+1)%nb, byte(i+1)),
				bandUpdate(s),
			}
			next := v.Clone()
			for _, u := range batch {
				if err := next.ApplyUpdate(u); err != nil {
					t.Errorf("verifier advance: %v", err)
					return
				}
			}
			root := next.Root()
			batch[len(batch)-1].NewRoot = root[:]
			// Publish the verifier BEFORE the generation can appear in
			// any answer, so readers never see an unmapped generation.
			verifiers.Store(s.Generation()+1, next)
			if err := s.ApplyUpdateBatch(batch); err != nil {
				t.Errorf("batch %d: %v", i, err)
				return
			}
			v = next
		}
	}()

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var lastGen uint64
			for i := 0; i < reads; i++ {
				ans, err := s.Execute(translated[(r+i)%len(translated)])
				if err != nil {
					t.Errorf("reader %d: %v", r, err)
					return
				}
				if ans.Generation < lastGen {
					t.Errorf("reader %d: generation went backwards %d -> %d", r, lastGen, ans.Generation)
					return
				}
				lastGen = ans.Generation
				v, ok := verifiers.Load(ans.Generation)
				if !ok {
					t.Errorf("reader %d: answer from unknown generation %d", r, ans.Generation)
					return
				}
				if err := v.(*wire.AuthVerifier).VerifyAnswer(ans); err != nil {
					t.Errorf("reader %d: answer at generation %d failed its own root: %v", r, ans.Generation, err)
					return
				}
			}
		}(r)
	}
	wg.Wait()

	if got := s.Generation(); got != startGen+commits {
		t.Fatalf("generation %d after %d commits from %d", got, commits, startGen)
	}
}
