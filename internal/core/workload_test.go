package core

import (
	"reflect"
	"sort"
	"testing"

	"repro/internal/datagen"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// TestWorkloadEquivalence runs the paper's generated workloads —
// both datasets, all four schemes, all three query classes — through
// the full hosted pipeline and checks exact equivalence with direct
// plaintext evaluation, for the selective method and for the naive
// ship-everything method of §7.3 alike.
//
// It is also the §7 harness: the shapes of §7.2–§7.4 and Figs. 9–10
// are asserted on what each query ships (answer bytes and blocks)
// and on each scheme's Definition 4.1 size. Those counts are
// deterministic and do not depend on the host, where the paper's
// wall-clock columns do: its 2006 client decrypted at ~5 MB/s, so
// its decryption time is these shipped bytes ÷ 5 MB/s.
func TestWorkloadEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("workload equivalence is slow; run without -short")
	}
	type ds struct {
		name string
		doc  *xmltree.Document
		scs  []string
	}
	datasets := []ds{
		{"xmark", datagen.XMark(40, 101), datagen.XMarkSCs()},
		{"nasa", datagen.NASA(40, 102), datagen.NASASCs()},
	}
	schemes := []SchemeName{SchemeOpt, SchemeApp, SchemeSub, SchemeTop}
	classes := []datagen.QueryClass{datagen.Qs, datagen.Qm, datagen.Ql}
	type key struct {
		ds    string
		sn    SchemeName
		class datagen.QueryClass
	}
	// shipped sums one (dataset, scheme, class) cell over its queries.
	type shipped struct {
		queries             int
		bytes, naiveBytes   int
		blocks, naiveBlocks int
	}
	cells := map[key]*shipped{}
	size := map[string]map[SchemeName]int{}
	queries := map[string]map[datagen.QueryClass][]string{}
	for _, d := range datasets {
		queries[d.name] = map[datagen.QueryClass][]string{}
		for _, class := range classes {
			queries[d.name][class] = datagen.Queries(d.doc, class, 6, 7)
		}
		size[d.name] = map[SchemeName]int{}
		for _, sn := range schemes {
			sys, err := Host(d.doc, d.scs, sn, []byte("workload-"+d.name))
			if err != nil {
				t.Fatalf("%s/%s: Host: %v", d.name, sn, err)
			}
			size[d.name][sn] = sys.Scheme.Size()
			for _, class := range classes {
				c := &shipped{}
				cells[key{d.name, sn, class}] = c
				for _, q := range queries[d.name][class] {
					want := plaintextResults(t, d.doc, q)
					nodes, _, tm, err := sys.Query(q)
					if err != nil {
						t.Fatalf("%s/%s/%v query %s: %v", d.name, sn, class, q, err)
					}
					naiveNodes, _, ntm, err := sys.NaiveQuery(q)
					if err != nil {
						t.Fatalf("%s/%s/%v naive %s: %v", d.name, sn, class, q, err)
					}
					for _, r := range []struct {
						method string
						nodes  []*xmltree.Node
					}{{"ours", nodes}, {"naive", naiveNodes}} {
						got := ResultStrings(r.nodes)
						sort.Strings(got)
						if !reflect.DeepEqual(got, want) {
							t.Errorf("%s/%s/%v %s query %s:\n got  %d results\n want %d results",
								d.name, sn, class, r.method, q, len(got), len(want))
						}
					}
					c.queries++
					c.bytes += tm.AnswerBytes
					c.blocks += tm.BlocksShipped
					c.naiveBytes += ntm.AnswerBytes
					c.naiveBlocks += ntm.BlocksShipped
				}
			}
		}
	}

	t.Logf("%-5s %-3s %-2s %9s %9s %6s %7s %7s", "data", "sch", "cl", "bytes", "naive", "ratio", "blocks", "naive")
	for _, d := range datasets {
		for _, sn := range schemes {
			for _, class := range classes {
				c := cells[key{d.name, sn, class}]
				t.Logf("%-5s %-3s %-2v %9d %9d %6.3f %7d %7d", d.name, sn, class,
					c.bytes, c.naiveBytes, float64(c.bytes)/float64(c.naiveBytes), c.blocks, c.naiveBlocks)
			}
		}
		t.Logf("%s scheme sizes: top %d, sub %d, app %d, opt %d", d.name,
			size[d.name][SchemeTop], size[d.name][SchemeSub], size[d.name][SchemeApp], size[d.name][SchemeOpt])
	}

	// Each shape is a subtest named after what it reproduces.
	t.Run("OursVsNaiveRatios", func(t *testing.T) {
		for _, d := range datasets {
			for _, sn := range schemes {
				for _, class := range classes {
					c := cells[key{d.name, sn, class}]
					ratio := float64(c.bytes) / float64(c.naiveBytes)
					// (a) §7.3: the selective method never ships more
					// than the whole database.
					if c.bytes > c.naiveBytes || c.blocks > c.naiveBlocks {
						t.Errorf("%s/%s/%v: ships %d B in %d blocks, naive %d B in %d blocks",
							d.name, sn, class, c.bytes, c.blocks, c.naiveBytes, c.naiveBlocks)
					}
					// (b) §7.3: top has one whole-document block, so it
					// performs as naive.
					if sn == SchemeTop && (c.blocks != c.queries || ratio < 0.99) {
						t.Errorf("%s/top/%v: %d blocks for %d queries, %.3f of naive's bytes; want 1 per query and >= 0.99",
							d.name, class, c.blocks, c.queries, ratio)
					}
					// (c) §7.3: on leaf-output queries sub/app/opt ship at
					// most 28 % of naive, the top of the paper's 11–28 % band.
					if sn != SchemeTop && class == datagen.Ql && ratio > 0.28 {
						t.Errorf("%s/%s/Ql: ships %.3f of naive's bytes, want <= 0.28", d.name, sn, ratio)
					}
				}
			}
		}
	})
	top := func(ds string, class datagen.QueryClass) int { return cells[key{ds, SchemeTop, class}].bytes }
	opt := func(ds string, class datagen.QueryClass) int { return cells[key{ds, SchemeOpt, class}].bytes }
	t.Run("DivisionOfWorkShape", func(t *testing.T) {
		// (d) Fig. 9 and §7.2: leaf queries ship far less under opt
		// than under top.
		for _, d := range datasets {
			if top(d.name, datagen.Ql) < 5*opt(d.name, datagen.Ql) {
				t.Errorf("%s/Ql: top ships %d B, under 5x opt's %d B",
					d.name, top(d.name, datagen.Ql), opt(d.name, datagen.Ql))
			}
		}
	})
	t.Run("SavingRatiosShape", func(t *testing.T) {
		// (e) Fig. 10: opt's saving over top grows as the output moves
		// down the tree, Qs → Qm → Ql.
		for _, d := range datasets {
			saving := func(class datagen.QueryClass) float64 {
				return float64(top(d.name, class)-opt(d.name, class)) / float64(top(d.name, class))
			}
			for i := 1; i < len(classes); i++ {
				lo, hi := classes[i-1], classes[i]
				if saving(hi) <= saving(lo) {
					t.Errorf("%s: opt's byte saving over top at %v %.3f <= at %v %.3f",
						d.name, hi, saving(hi), lo, saving(lo))
				}
			}
		}
	})
	t.Run("QueryClassesDistinct", func(t *testing.T) {
		// (g) §7.1: the three classes are three workloads — no query
		// is in two of them, and Qm outputs at another level than Qs.
		for _, d := range datasets {
			classOf := map[string]datagen.QueryClass{}
			levels := map[datagen.QueryClass]map[int]bool{}
			for _, class := range classes {
				levels[class] = map[int]bool{}
				for _, q := range queries[d.name][class] {
					if other, dup := classOf[q]; dup && other != class {
						t.Errorf("%s: %s is both a %v and a %v query", d.name, q, other, class)
					}
					classOf[q] = class
					for _, n := range xpath.Evaluate(d.doc, xpath.MustParse(q)) {
						levels[class][n.Level()] = true
					}
				}
			}
			for l := range levels[datagen.Qm] {
				if levels[datagen.Qs][l] {
					t.Errorf("%s: Qm and Qs both output level %d", d.name, l)
				}
			}
			if len(levels[datagen.Qm]) == 0 {
				t.Errorf("%s: Qm outputs nothing", d.name)
			}
		}
	})
	t.Run("EncryptionCostShape", func(t *testing.T) {
		// (f) §7.4 and Theorem 4.2: opt is minimal in Definition 4.1's
		// size and app stays within its 2-approximation bound.
		for _, d := range datasets {
			sz := size[d.name]
			if sz[SchemeOpt] > sz[SchemeApp] || sz[SchemeApp] > 2*sz[SchemeOpt] || sz[SchemeOpt] > sz[SchemeTop] {
				t.Errorf("%s: scheme sizes top %d, app %d, opt %d; want opt <= app <= 2*opt and opt <= top",
					d.name, sz[SchemeTop], sz[SchemeApp], sz[SchemeOpt])
			}
		}
		// On XMark sub encrypts more than opt; on NASA the relation
		// inverts (EXPERIMENTS.md, E3).
		if sz := size["xmark"]; sz[SchemeSub] <= sz[SchemeOpt] {
			t.Errorf("xmark: sub scheme size %d <= opt %d", sz[SchemeSub], sz[SchemeOpt])
		}
	})
}
