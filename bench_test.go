package repro

// Micro-benchmarks of every substrate, plus §7.4's hosting-time
// rung (BenchmarkEncryptionSchemes). The §7 figure shapes are
// asserted as shipped-byte counts by internal/core's
// TestWorkloadEquivalence, and end-to-end cost is measured by the
// nested benchmark/ module.
//
//	go test -bench=. -benchmem

import (
	"context"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/authtree"
	"repro/internal/btree"
	"repro/internal/core"
	"repro/internal/cryptoprim"
	"repro/internal/datagen"
	"repro/internal/dsi"
	"repro/internal/opess"
	"repro/internal/remote"
	"repro/internal/sc"
	"repro/internal/scheme"
	"repro/internal/server"
	"repro/internal/wire"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// BenchmarkEncryptionSchemes measures §7.4's encryption cost (E3):
// wall time to build blocks + metadata + value index per scheme on a
// 500 KB NASA-style document, with the hosted size as a custom metric.
func BenchmarkEncryptionSchemes(b *testing.B) {
	doc := datagen.NASAToSize(500_000, 7)
	scs := datagen.NASASCs()
	for _, schemeName := range []core.SchemeName{core.SchemeTop, core.SchemeSub, core.SchemeApp, core.SchemeOpt} {
		b.Run(string(schemeName), func(b *testing.B) {
			var hosted int
			for i := 0; i < b.N; i++ {
				sys, err := core.Host(doc, scs, schemeName, []byte("enc-bench"))
				if err != nil {
					b.Fatalf("Host: %v", err)
				}
				hosted = sys.HostedDB.ByteSize()
			}
			b.ReportMetric(float64(hosted)/1024, "hosted-KB")
		})
	}
}

// --- substrate micro-benchmarks ---

func BenchmarkXPathEvaluate(b *testing.B) {
	doc := datagen.NASA(2000, 3)
	queries := []*xpath.Path{
		xpath.MustParse("//dataset/title"),
		xpath.MustParse("//dataset[date>=1990]//last"),
		xpath.MustParse("//author[initial='A']/last"),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		xpath.Evaluate(doc, queries[i%len(queries)])
	}
}

func BenchmarkXMLParse(b *testing.B) {
	data := []byte(datagen.NASA(500, 3).String())
	b.SetBytes(int64(len(data)))
	b.Run("encoding-xml", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			if _, err := xmltree.ParseString(string(data)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("compact", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			if _, err := xmltree.ParseCompact(data); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkDSIAssign(b *testing.B) {
	doc := datagen.NASA(2000, 3)
	keys := cryptoprim.MustKeySet("bench")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dsi.Assign(doc, keys); err != nil {
			b.Fatal(err)
		}
	}
}

var (
	indexSink  *btree.Index
	blocksSink []int
)

// BenchmarkValueIndex measures the server's value index (§5.2): a
// range lookup of 1 000 keys among 100 000 entries, and the one-band
// replace an update commits (group the update's entries into their
// band run, check its order, install it) on the index of the benchmark
// document (550 KB NASA-style), replacing its most occupied band.
func BenchmarkValueIndex(b *testing.B) {
	b.Run("range", func(b *testing.B) {
		entries := make([]btree.Entry, 100_000)
		for i := range entries {
			entries[i] = btree.Entry{Key: uint64(i), BlockID: i}
		}
		ix := btree.NewIndex(entries)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			lo := uint64(i % 90000)
			blocksSink = ix.RangeBlocks(lo, lo+1000)
		}
	})
	b.Run("replace-band", func(b *testing.B) {
		sys, err := core.Host(datagen.NASAToSize(550_000, 2006), datagen.NASASCs(), core.SchemeOpt, []byte("index-bench"))
		if err != nil {
			b.Fatal(err)
		}
		ix := btree.NewIndex(sys.HostedDB.IndexEntries)
		var band uint8
		for c := 0; c < btree.NumBands; c++ {
			if len(ix.Band(uint8(c))) > len(ix.Band(band)) {
				band = uint8(c)
			}
		}
		us := []*wire.Update{{DropBands: []uint8{band}, AddEntries: ix.Band(band)}}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			bands, err := wire.ReplacedBands(us)
			if err != nil {
				b.Fatal(err)
			}
			indexSink = ix.With(bands)
		}
		b.ReportMetric(float64(ix.Len()), "entries")
		b.ReportMetric(float64(len(ix.Band(band))), "band-entries")
	})
}

// BenchmarkStructuralJoin compares the per-context binary-search
// probe against the batched structural join (§6.2) over node numbers
// on a realistic node table.
func BenchmarkStructuralJoin(b *testing.B) {
	doc := datagen.NASA(3000, 3)
	keys := cryptoprim.MustKeySet("join-bench")
	md, err := dsi.BuildMetadata(doc, nil, keys)
	if err != nil {
		b.Fatal(err)
	}
	f := dsi.BuildForest(md.Table)
	ctxs := f.Nodes("dataset")
	cands := f.Nodes("last")
	b.Run("per-context", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			total := 0
			for _, ctx := range ctxs {
				total += len(f.Descendants(cands, ctx))
			}
			if total == 0 {
				b.Fatal("no matches")
			}
		}
	})
	b.Run("merge-join", func(b *testing.B) {
		var out []int32
		for i := 0; i < b.N; i++ {
			if out = f.JoinDescendants(out[:0], ctxs, cands); len(out) == 0 {
				b.Fatal("no matches")
			}
		}
	})
}

func BenchmarkOPE(b *testing.B) {
	ope := cryptoprim.NewOPE(cryptoprim.MustKeySet("bench"), 6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ope.Encrypt(float64(i % 100000)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOPESSBuild(b *testing.B) {
	keys := cryptoprim.MustKeySet("bench")
	freq := map[string]int{}
	r := datagen.NewRand(5)
	for i := 0; i < 200; i++ {
		freq[fmt.Sprintf("v%03d", i)] = 1 + r.Zipf(50)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := opess.Build("attr", freq, keys); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAESBlock(b *testing.B) {
	keys := cryptoprim.MustKeySet("bench")
	pt := []byte(datagen.NASA(20, 3).String())
	b.SetBytes(int64(len(pt)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ct, err := keys.EncryptBlock(pt)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := keys.DecryptBlock(ct); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVertexCover(b *testing.B) {
	r := datagen.NewRand(11)
	in := &scheme.VCInstance{Weights: make([]int, 16)}
	for i := range in.Weights {
		in.Weights[i] = 1 + r.Intn(9)
	}
	for u := 0; u < 16; u++ {
		for v := u + 1; v < 16; v++ {
			if r.Intn(4) == 0 {
				in.Edges = append(in.Edges, [2]int{u, v})
			}
		}
	}
	b.Run("exact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := scheme.ExactCover(in); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("clarkson", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := scheme.ClarksonCover(in); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkWireMarshal measures the wire-format cost of shipping a
// hosted database (upload path) and answers.
func BenchmarkWireMarshal(b *testing.B) {
	doc := datagen.NASA(500, 3)
	sys, err := core.Host(doc, datagen.NASASCs(), core.SchemeOpt, []byte("wire-bench"))
	if err != nil {
		b.Fatal(err)
	}
	data, err := wire.MarshalDB(sys.HostedDB)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("marshal-db", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			if _, err := wire.MarshalDB(sys.HostedDB); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("unmarshal-db", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			if _, err := wire.UnmarshalDB(data); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkRemoteRoundTrip measures a full query over the HTTP
// transport (loopback), versus the in-process backend.
func BenchmarkRemoteRoundTrip(b *testing.B) {
	doc := datagen.NASA(300, 3)
	sys, err := core.Host(doc, datagen.NASASCs(), core.SchemeOpt, []byte("remote-bench"))
	if err != nil {
		b.Fatal(err)
	}
	q := "//dataset[date>=1995]/title"
	b.Run("in-process", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, _, err := sys.Query(q); err != nil {
				b.Fatal(err)
			}
		}
	})
	ts := httptest.NewServer(remote.NewService())
	defer ts.Close()
	cl := remote.Dial(ts.URL, "bench").WithHTTPClient(ts.Client())
	if err := cl.Upload(context.Background(), sys.HostedDB); err != nil {
		b.Fatal(err)
	}
	sys.UseBackend(cl)
	b.Run("http", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, _, err := sys.Query(q); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkUpdate measures the future-work extension: one leaf-value
// update including block re-encryption and index-band re-issue, with
// and without the Merkle commitment both sides then advance.
func BenchmarkUpdate(b *testing.B) {
	for _, integrity := range []bool{false, true} {
		name := "integrity=off"
		if integrity {
			name = "integrity=on"
		}
		b.Run(name, func(b *testing.B) {
			doc := datagen.NASA(300, 3)
			sys, err := core.Host(doc, datagen.NASASCs(), core.SchemeOpt, []byte("update-bench"))
			if err != nil {
				b.Fatal(err)
			}
			if integrity {
				if err := sys.EnableIntegrity(); err != nil {
					b.Fatal(err)
				}
			}
			vals := []string{"Zeta", "Yost", "Xu"}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sys.UpdateLeafValues("//dataset[1]/author[1]/last", vals[i%len(vals)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

var treeSink *authtree.Tree

// BenchmarkMerkleAdvance compares the two ways to commit a one-leaf
// edit on a tree the size of the benchmark document's (30 000 leaves):
// advancing along the leaf's root path, as updates do, or rebuilding.
func BenchmarkMerkleAdvance(b *testing.B) {
	const n = 30_000
	leaves := make([]authtree.Digest, n)
	for i := range leaves {
		leaves[i] = authtree.LeafHash([]byte(fmt.Sprintf("leaf-%d", i)))
	}
	tree := authtree.New(leaves)
	edit := authtree.LeafItem{Index: n / 3, Digest: authtree.LeafHash([]byte("edited"))}
	b.Run("with", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var err error
			if treeSink, err = tree.With([]authtree.LeafItem{edit}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("new", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			edited := append([]authtree.Digest(nil), leaves...)
			edited[edit.Index] = edit.Digest
			treeSink = authtree.New(edited)
		}
	})
}

// The benchmark module's hosted document (benchmark/layers.go): NASA,
// seed 2006, 512 KiB, hosted under the optimal scheme, with its first
// 64 distinct altname values. It is built once per test binary and
// shared by the rungs below.
var benchHosted struct {
	once     sync.Once
	sys      *core.System
	altnames []string
	err      error
}

func benchDocSystem(tb testing.TB) *core.System {
	benchHosted.once.Do(func() {
		doc := datagen.NASAToSize(512<<10, 2006)
		seen := map[string]bool{}
		doc.Root.Walk(func(n *xmltree.Node) bool {
			if n.Kind != xmltree.Element || n.Tag != "altname" || len(seen) == 64 {
				return true
			}
			if v := n.LeafValue(); !seen[v] {
				seen[v] = true
				benchHosted.altnames = append(benchHosted.altnames, v)
			}
			return true
		})
		benchHosted.sys, benchHosted.err = core.Host(doc, datagen.NASASCs(), core.SchemeOpt, []byte("benchmark-owner-key"))
	})
	if benchHosted.err != nil {
		tb.Fatalf("Host: %v", benchHosted.err)
	}
	return benchHosted.sys
}

// bulkAnswer is the benchmark's first bulk query, //dataset[publisher=
// 'NASA'] (a third to a half of the datasets, whole subtrees), answered
// by the server on the benchmark document and decrypted: the input of
// the owner's post-processing on the bulk workload.
func bulkAnswer(tb testing.TB) (*core.System, *xpath.Path, *wire.Answer, map[int][]byte) {
	sys := benchDocSystem(tb)
	path := xpath.MustParse("//dataset[publisher='NASA']")
	q, err := sys.Client.Translate(path)
	if err != nil {
		tb.Fatalf("translate: %v", err)
	}
	ans, _, err := sys.Server.Execute(context.Background(), q)
	if err != nil {
		tb.Fatalf("execute: %v", err)
	}
	blocks, err := sys.Client.DecryptBlocks(ans)
	if err != nil {
		tb.Fatalf("decrypt: %v", err)
	}
	return sys, path, ans, blocks
}

var postSink []*xmltree.Node

// BenchmarkBulkPostProcess measures the owner's answer reconstruction
// (§6.4) on a bulk answer: the fragments and decrypted blocks assembled
// into one tree and the query re-applied to it.
func BenchmarkBulkPostProcess(b *testing.B) {
	sys, path, ans, blocks := bulkAnswer(b)
	b.SetBytes(int64(ans.ByteSize()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nodes, _, err := sys.Client.PostProcess(path, ans, blocks)
		if err != nil {
			b.Fatal(err)
		}
		postSink = nodes
	}
}

var serverSink *server.Server

// BenchmarkServerNew measures booting a server on the benchmark
// document: node table (forest, labels and guide), residue facts and
// value index. The benchmark's set-up boots one twice (on hosting, then on
// upload).
func BenchmarkServerNew(b *testing.B) {
	sys := benchDocSystem(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serverSink = server.New(sys.HostedDB)
	}
}

// BenchmarkPointQuery measures the server's side of the benchmark's
// point workload: distinct //dataset[altname=K]/title frames with a
// proof, executed cold (caching off) on the benchmark document.
func BenchmarkPointQuery(b *testing.B) {
	sys := benchDocSystem(b)
	srv := server.New(sys.HostedDB)
	srv.SetCaching(false)
	var frames [][]byte
	for _, k := range benchHosted.altnames {
		q, err := sys.Client.Translate(xpath.MustParse(fmt.Sprintf("//dataset[altname='%s']/title", k)))
		if err != nil {
			b.Fatalf("translate: %v", err)
		}
		q.WantProof = true
		frame, err := wire.MarshalQuery(q)
		if err != nil {
			b.Fatalf("marshal: %v", err)
		}
		frames = append(frames, frame)
	}
	if len(frames) == 0 {
		b.Fatal("no altname in the document")
	}
	ctx := context.Background()
	// The first proof builds the generation's Merkle prover.
	if _, err := srv.ExecuteFrameCtx(ctx, frames[0]); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := srv.ExecuteFrameCtx(ctx, frames[i%len(frames)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAggregateMinMax measures the §6.4 single-block path.
func BenchmarkAggregateMinMax(b *testing.B) {
	doc := datagen.NASA(1000, 3)
	sys, err := core.Host(doc, datagen.NASASCs(), core.SchemeOpt, []byte("agg-bench"))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := sys.AggregateMinMax("//author/last", i%2 == 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSchemeConstruction(b *testing.B) {
	doc := datagen.NASA(500, 3)
	scs, err := sc.ParseAll(datagen.NASASCs())
	if err != nil {
		b.Fatal(err)
	}
	b.Run("optimal", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := scheme.Optimal(doc, scs); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("approx", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := scheme.Approx(doc, scs); err != nil {
				b.Fatal(err)
			}
		}
	})
}
