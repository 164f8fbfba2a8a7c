package difftest

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// batchEdit is one member of a concurrent update round: a leaf-value
// rename targeting every occurrence of a (tag, value) pair, plus the
// per-caller outcome filled in by its goroutine.
type batchEdit struct {
	q      string
	tag    string
	oldVal string
	newVal string

	n   int
	tm  core.Timings
	err error
}

// RunCaseWithBatchedUpdates is RunCase with concurrent updaters on the
// group-commit pipeline: between query passes, several callers update
// disjoint (tag, value) targets through one System at once, so members
// that queue behind an in-flight batch share the next one, and members
// that conflict with an unsettled one wait at the barriers (which is
// part of the coverage). Every caller then runs verified queries
// of its own target — with integrity enabled, each answer's Merkle
// proof is checked against the root the caller's batch advanced the
// shared verifier to, so each member's individual edit is proven
// against the batch root, not just the batch as a whole. Finally the
// edits are mirrored onto the plaintext reference and the full query
// list re-runs differentially.
func RunCaseWithBatchedUpdates(c *Case) error {
	const (
		batchRounds = 2
		membersMax  = 3
	)
	r := datagen.NewRand(c.Seed ^ 0x6274_6368) // "btch"
	for _, name := range Schemes {
		hostDoc := c.Doc.Clone()
		ref := c.Doc.Clone()
		sys, err := hostScheme(c, name, hostDoc)
		if err != nil {
			return err
		}
		if err := runQueries(c, name, sys, ref); err != nil {
			return err
		}
		for round := 0; round < batchRounds; round++ {
			edits := pickBatchEdits(r, ref, sys, membersMax)
			if len(edits) == 0 {
				break // no batchable update set under this scheme
			}
			var wg sync.WaitGroup
			for _, e := range edits {
				wg.Add(1)
				go func(e *batchEdit) {
					defer wg.Done()
					e.n, e.tm, e.err = sys.UpdateLeafValuesTimed(context.Background(), e.q, e.newVal)
					if e.err != nil || e.n == 0 {
						return
					}
					// Per-caller proof check against the batch root: both
					// probes request and verify Merkle proofs, and the
					// shared verifier already sits at (or past) the root
					// of the batch that carried this member.
					e.err = probeOwnTarget(sys, e)
				}(e)
			}
			wg.Wait()
			for _, e := range edits {
				if e.err != nil {
					return fmt.Errorf("seed %d (%s): scheme %s round %d: batched update %q -> %q: %w",
						c.Seed, c.DocName, name, round, e.q, e.newVal, e.err)
				}
				if e.n == 0 {
					return fmt.Errorf("seed %d (%s): scheme %s round %d: batched update %q -> %q edited nothing",
						c.Seed, c.DocName, name, round, e.q, e.newVal)
				}
				if e.tm.UpdateBatchSize < 1 || e.tm.UpdateBatchSize > membersMax {
					return fmt.Errorf("seed %d (%s): scheme %s round %d: update %q reported batch size %d",
						c.Seed, c.DocName, name, round, e.q, e.tm.UpdateBatchSize)
				}
				// Mirror onto the plaintext reference; the encrypted and
				// plaintext sides must have renamed the same occurrences.
				path, err := xpath.Parse(e.q)
				if err != nil {
					return fmt.Errorf("seed %d (%s): update query %q: %w", c.Seed, c.DocName, e.q, err)
				}
				mirrored := 0
				for _, target := range xpath.Evaluate(ref, path) {
					target.SetLeafValue(e.newVal)
					mirrored++
				}
				if e.n != mirrored {
					return fmt.Errorf("seed %d (%s): scheme %s round %d: update %q touched %d encrypted leaves but %d plaintext leaves",
						c.Seed, c.DocName, name, round, e.q, e.n, mirrored)
				}
			}
			if err := runQueries(c, name, sys, ref); err != nil {
				return fmt.Errorf("after batched round %d: %w", round, err)
			}
		}
	}
	return nil
}

// probeOwnTarget runs the caller's own verified probes right after its
// ack, possibly while other members are still queued: the old value
// must be gone and the new value present at least n times. Targets
// have pairwise-distinct tags, so no concurrent member can disturb
// either probe, and the snapshot isolation of queued batches keeps
// other members' pending edits invisible.
func probeOwnTarget(sys *core.System, e *batchEdit) error {
	gone, _, _, err := sys.Query("//" + e.tag + "[.='" + e.oldVal + "']")
	if err != nil {
		return fmt.Errorf("old-value probe: %w", err)
	}
	if len(gone) != 0 {
		return fmt.Errorf("old-value probe: %d stale %q leaves survive the ack", len(gone), e.oldVal)
	}
	now, _, _, err := sys.Query("//" + e.tag + "[.='" + e.newVal + "']")
	if err != nil {
		return fmt.Errorf("new-value probe: %w", err)
	}
	if len(now) < e.n {
		return fmt.Errorf("new-value probe: %d %q leaves, want at least %d", len(now), e.newVal, e.n)
	}
	return nil
}

// pickBatchEdits draws up to k updatable targets with pairwise
// distinct tags (disjoint targets can commit in one batch in any
// order, and the per-caller probes stay independent). Each candidate
// is dry-run probed like pickUpdate; schemes that leave fewer than
// one updatable tag yield a short or empty round.
func pickBatchEdits(r *datagen.Rand, ref *xmltree.Document, sys *core.System, k int) []*batchEdit {
	sh := shapeOf(ref)
	usedTag := map[string]bool{}
	var out []*batchEdit
	for attempt := 0; attempt < 8*k && len(out) < k; attempt++ {
		leaf := pickLeaf(r, sh)
		if leaf == nil {
			break
		}
		if usedTag[leaf.Tag] {
			continue
		}
		val := leaf.LeafValue()
		newVal := renameValue(val)
		if !safeValue(newVal) || newVal == val {
			continue
		}
		q := "//" + leaf.Tag + "[.='" + val + "']"
		// Dry run (same-value update must be a 0-count no-op): rejects
		// plaintext and otherwise non-updatable leaves under the scheme.
		if n, err := sys.UpdateLeafValues(q, val); err != nil || n != 0 {
			continue
		}
		usedTag[leaf.Tag] = true
		out = append(out, &batchEdit{q: q, tag: leaf.Tag, oldVal: val, newVal: newVal})
	}
	return out
}
