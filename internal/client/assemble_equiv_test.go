package client_test

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/difftest"
	"repro/internal/xpath"
)

// TestAssemblyMatchesReferenceOnCorpus holds the one-pass answer
// assembly to the reference splice-parse-rewrite assembly on every
// answer the differential corpus produces, under all five schemes: the
// same serialized tree with the same preorder IDs, the same result
// nodes, and the same block provenance, or the same error.
func TestAssemblyMatchesReferenceOnCorpus(t *testing.T) {
	seeds := difftest.CorpusSeeds
	if testing.Short() {
		seeds = seeds[:4]
	}
	answers, blocks := 0, 0
	for _, seed := range seeds {
		c := difftest.GenCase(seed)
		for _, name := range difftest.Schemes {
			sys, err := core.Host(c.Doc, c.SCs, name, []byte(fmt.Sprintf("assembly-%d", seed)))
			if err != nil {
				t.Fatalf("seed %d: host %s: %v", seed, name, err)
			}
			for _, q := range c.Queries {
				path, err := xpath.Parse(q)
				if err != nil {
					t.Fatalf("seed %d: query %q: %v", seed, q, err)
				}
				qs, err := sys.Client.Translate(path)
				if err != nil {
					t.Fatalf("seed %d: scheme %s query %q: translate: %v", seed, name, q, err)
				}
				ans, _, err := sys.Server.Execute(context.Background(), qs)
				if err != nil {
					t.Fatalf("seed %d: scheme %s query %q: %v", seed, name, q, err)
				}
				pts, err := sys.Client.DecryptBlocks(ans)
				if err != nil {
					t.Fatalf("seed %d: scheme %s query %q: decrypt: %v", seed, name, q, err)
				}
				want, wantErr := client.RefPostProcessFull(sys.Client, path, ans, pts)
				got, gotErr := sys.Client.PostProcessFull(path, ans, pts)
				if (wantErr == nil) != (gotErr == nil) || (wantErr != nil && wantErr.Error() != gotErr.Error()) {
					t.Fatalf("seed %d: scheme %s query %q: error %v, the reference %v", seed, name, q, gotErr, wantErr)
				}
				if wantErr != nil {
					continue
				}
				if err := client.SamePostResult(got, want); err != nil {
					t.Fatalf("seed %d: scheme %s query %q: %v", seed, name, q, err)
				}
				answers++
				blocks += len(ans.BlockIDs)
			}
		}
	}
	if answers < 100 || blocks < 100 {
		t.Fatalf("corpus too thin: %d answers, %d blocks", answers, blocks)
	}
	t.Logf("%d answers, %d blocks assembled identically", answers, blocks)
}
