package server_test

import (
	"context"
	"fmt"
	"math"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/difftest"
	"repro/internal/server"
	"repro/internal/wire"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// TestResidueFactsMatchTree checks the residue facts New decides once
// against the per-call path they replace, re-implemented here as the
// oracle: for every residue interval of every difftest corpus document
// under every scheme, as hosted and as a remote server decodes the
// upload, the record names the interval's node, whether it is a
// placeholder, whether a placeholder lies in its subtree (itself
// included) and, when none does, its string-value and that value
// parsed as a number.
func TestResidueFactsMatchTree(t *testing.T) {
	var placeholders, hiding, numeric, text int
	for _, seed := range difftest.CorpusSeeds {
		c := difftest.GenCase(seed)
		for _, name := range difftest.Schemes {
			sys, err := core.Host(c.Doc, c.SCs, name, []byte(fmt.Sprintf("difftest-%d", seed)))
			if err != nil {
				t.Fatalf("seed %d: host %s: %v", seed, name, err)
			}
			enc, err := wire.MarshalDB(sys.HostedDB)
			if err != nil {
				t.Fatalf("seed %d, %s: marshal: %v", seed, name, err)
			}
			uploaded, err := wire.UnmarshalDB(enc)
			if err != nil {
				t.Fatalf("seed %d, %s: unmarshal: %v", seed, name, err)
			}
			for _, db := range []*wire.HostedDB{sys.HostedDB, uploaded} {
				facts := server.New(db).ResidueFacts()
				if len(facts) != len(db.ResidueIntervals) {
					t.Fatalf("seed %d, %s: %d facts for %d residue intervals", seed, name, len(facts), len(db.ResidueIntervals))
				}
				for n, iv := range db.ResidueIntervals {
					got, ok := facts[iv]
					want := oracleFact(n)
					if !ok || !sameFact(got, want) {
						t.Fatalf("seed %d, %s: interval %v: fact %+v, want %+v", seed, name, iv, got, want)
					}
					switch {
					case want.Placeholder:
						placeholders++
					case want.HidesBlock:
						hiding++
					case want.Val.Num:
						numeric++
					default:
						text++
					}
				}
			}
		}
	}
	if placeholders == 0 || hiding == 0 || numeric == 0 || text == 0 {
		t.Errorf("corpus left a kind of fact untested: %d placeholders, %d hiding a block, %d numeric, %d text",
			placeholders, hiding, numeric, text)
	}
}

// oracleFact decides one residue node the way the matcher did per call
// before the facts were decided at boot: a tag test, a walk for
// placeholders, the XPath string-value and a float parse.
func oracleFact(n *xmltree.Node) server.ResidueFact {
	isPlaceholder := func(m *xmltree.Node) bool {
		return m.Kind == xmltree.Element && m.Tag == wire.PlaceholderTag
	}
	f := server.ResidueFact{Node: n, Placeholder: isPlaceholder(n)}
	n.Walk(func(m *xmltree.Node) bool {
		f.HidesBlock = f.HidesBlock || isPlaceholder(m)
		return !f.HidesBlock
	})
	if !f.HidesBlock {
		s := xpath.StringValue(n)
		v, err := strconv.ParseFloat(s, 64)
		f.Val = xpath.Value{S: s, F: v, Num: err == nil}
	}
	return f
}

func sameFact(a, b server.ResidueFact) bool {
	return a.Node == b.Node && a.Placeholder == b.Placeholder && a.HidesBlock == b.HidesBlock &&
		a.Val.S == b.Val.S && a.Val.Num == b.Val.Num &&
		(!a.Val.Num || math.Float64bits(a.Val.F) == math.Float64bits(b.Val.F))
}

// TestPointQueryAllocs bounds the allocations of one cold point lookup
// (caching off, proof on): the benchmark's //dataset[altname=K]/title
// on a 400-dataset document. Deciding residue predicates from boot-time
// facts took it from 3 284 allocations to 887 (883 later); carrying node
// numbers, whose one-context predicate chains keep their context slice
// on the stack, took it to 482. The bound is that count plus 20 %.
func TestPointQueryAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation bounds need sync.Pool, which the race detector drains at random")
	}
	doc := datagen.NASA(400, 2006)
	var altname string
	doc.Root.Walk(func(n *xmltree.Node) bool {
		if altname == "" && n.Kind == xmltree.Element && n.Tag == "altname" {
			altname = n.LeafValue()
		}
		return altname == ""
	})
	sys, err := core.Host(doc, datagen.NASASCs(), core.SchemeOpt, []byte("point-allocs"))
	if err != nil {
		t.Fatal(err)
	}
	q, err := sys.Client.Translate(xpath.MustParse(fmt.Sprintf("//dataset[altname='%s']/title", altname)))
	if err != nil {
		t.Fatal(err)
	}
	q.WantProof = true
	frame, err := wire.MarshalQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(sys.HostedDB)
	srv.SetCaching(false)
	ctx := context.Background()
	run := func() {
		ans, err := srv.ExecuteFrameCtx(ctx, frame)
		if err != nil {
			t.Fatal(err)
		}
		if len(ans.Fragments)+len(ans.Blocks) == 0 {
			t.Fatal("the point lookup found nothing")
		}
	}
	run() // builds the generation's Merkle prover
	const bound = 578
	got := testing.AllocsPerRun(20, run)
	t.Logf("cold point lookup: %.0f allocs", got)
	if got > bound {
		t.Errorf("cold point lookup: %.0f allocs, want <= %d", got, bound)
	}
}
