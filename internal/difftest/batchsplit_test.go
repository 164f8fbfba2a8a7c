package difftest

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/server"
	"repro/internal/wire"
	"repro/internal/xpath"
)

// memberRecorder keeps every member the owner sends, in order.
type memberRecorder struct {
	core.Backend
	members []*wire.Update
}

func (m *memberRecorder) ApplyUpdateBatch(ctx context.Context, b *wire.UpdateBatch) error {
	m.members = append(m.members, b.Updates...)
	return m.Backend.ApplyUpdateBatch(ctx, b)
}

// batchSplitEdits is N in the property below: one full sixteen-member
// batch and a partial one.
const batchSplitEdits = 20

// TestBatchSplitEquivalence is the one update path's property: how a
// sequence of members is cut into batches is invisible in the state it
// leaves. One owner issues a seeded sequence of N edits; the exact
// members it sent are replayed onto two servers booted from the same
// upload, as N one-member batches and as ⌈N/16⌉ sixteen-member ones.
// Both must end at the owner's Merkle root with the same index entries
// and answer every corpus query with the same bytes, proof included
// (only the generation echo differs: one bump per batch).
func TestBatchSplitEquivalence(t *testing.T) {
	seeds := CorpusSeeds
	if testing.Short() {
		seeds = seeds[:4]
	}
	for _, seed := range seeds {
		c := GenCase(seed)
		t.Run(c.DocName+"/"+itoa(seed), func(t *testing.T) {
			t.Parallel()
			for _, name := range Schemes {
				if err := runBatchSplit(c, name); err != nil {
					t.Errorf("seed %d (%s): scheme %s: %v", c.Seed, c.DocName, name, err)
				}
			}
		})
	}
}

func runBatchSplit(c *Case, name core.SchemeName) error {
	ref := c.Doc.Clone()
	sys, err := hostScheme(c, name, c.Doc.Clone())
	if err != nil {
		return err
	}
	upload, err := wire.MarshalDB(sys.HostedDB)
	if err != nil {
		return err
	}
	rec := &memberRecorder{Backend: sys.Server}
	sys.UseBackend(rec)
	r := datagen.NewRand(c.Seed ^ 0x73706c74) // "splt"
	for i := 0; i < batchSplitEdits; i++ {
		q, newVal, ok := pickUpdate(r, ref, sys)
		if !ok {
			break // no encrypted updatable leaf under this scheme
		}
		if _, err := sys.UpdateLeafValues(q, newVal); err != nil {
			return fmt.Errorf("edit %d (%q -> %q): %w", i, q, newVal, err)
		}
		for _, target := range xpath.Evaluate(ref, xpath.MustParse(q)) {
			target.SetLeafValue(newVal)
		}
	}
	if len(rec.members) == 0 {
		return nil
	}

	replay := func(size int) (*server.Server, error) {
		db, err := wire.UnmarshalDB(upload)
		if err != nil {
			return nil, err
		}
		srv := server.New(db)
		srv.SetCaching(false)
		for at := 0; at < len(rec.members); at += size {
			end := min(at+size, len(rec.members))
			if err := srv.ApplyUpdateBatch(rec.members[at:end]); err != nil {
				return nil, fmt.Errorf("members %d..%d as one batch: %w", at, end, err)
			}
		}
		return srv, nil
	}
	ones, err := replay(1)
	if err != nil {
		return err
	}
	sixteens, err := replay(16)
	if err != nil {
		return err
	}

	ver := sys.Verifier()
	rootOnes, err := ones.AuthRoot()
	if err != nil {
		return err
	}
	rootSixteens, err := sixteens.AuthRoot()
	if err != nil {
		return err
	}
	if owner := ver.Root(); rootOnes != rootSixteens || rootOnes != owner {
		return fmt.Errorf("roots differ after %d members: ones %x, sixteens %x, owner %x",
			len(rec.members), rootOnes[:8], rootSixteens[:8], owner[:8])
	}
	if !reflect.DeepEqual(ones.CurrentDB().IndexEntries, sixteens.CurrentDB().IndexEntries) {
		return fmt.Errorf("index entries differ after %d members", len(rec.members))
	}
	for _, q := range c.Queries {
		qs, err := sys.Client.Translate(xpath.MustParse(q))
		if err != nil {
			return fmt.Errorf("translate %q: %w", q, err)
		}
		qs.WantProof = true
		frame, err := wire.MarshalQuery(qs)
		if err != nil {
			return err
		}
		var wires [2][]byte
		for i, srv := range []*server.Server{ones, sixteens} {
			ans, err := srv.ExecuteFrameCtx(context.Background(), frame)
			if err != nil {
				return fmt.Errorf("query %q: %w", q, err)
			}
			if err := ver.VerifyAnswer(ans); err != nil {
				return fmt.Errorf("query %q: proof rejected: %w", q, err)
			}
			ans.Epoch, ans.Generation = 0, 0
			if wires[i], err = wire.MarshalAnswer(ans); err != nil {
				return err
			}
		}
		if !bytes.Equal(wires[0], wires[1]) {
			return fmt.Errorf("query %q: answers differ on the wire (%d vs %d bytes)", q, len(wires[0]), len(wires[1]))
		}
	}
	return nil
}
