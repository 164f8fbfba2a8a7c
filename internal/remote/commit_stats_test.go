package remote

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/faultfs"
	"repro/internal/xmltree"
)

// syncHookFS is the real filesystem calling hook before every file
// and directory fsync (tests count them, or park in them).
type syncHookFS struct {
	faultfs.OS
	hook func()
}

type syncHookFile struct {
	faultfs.File
	hook func()
}

func (s syncHookFS) OpenFile(path string, flag int, perm os.FileMode) (faultfs.File, error) {
	f, err := s.OS.OpenFile(path, flag, perm)
	if err != nil {
		return nil, err
	}
	return syncHookFile{File: f, hook: s.hook}, nil
}

func (s syncHookFS) SyncDir(path string) error { s.hook(); return s.OS.SyncDir(path) }

func (f syncHookFile) Sync() error { f.hook(); return f.File.Sync() }

// durableOwner hosts doc on a durable service (configured by opts)
// behind loopback HTTP, integrity on, and returns the owner wired to
// it.
func durableOwner(t *testing.T, doc *xmltree.Document, scSpecs []string, opts PersistOptions) (*core.System, *httptest.Server) {
	t.Helper()
	sys, err := core.Host(doc, scSpecs, core.SchemeOpt, []byte("commit-stats"))
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.EnableIntegrity(); err != nil {
		t.Fatal(err)
	}
	svc, err := NewPersistentServiceOpts(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc)
	t.Cleanup(func() { ts.Close(); svc.Close() })
	cl := Dial(ts.URL, "hospital").WithHTTPClient(ts.Client()).WithVerifier(sys.Verifier())
	if err := cl.Upload(context.Background(), sys.HostedDB); err != nil {
		t.Fatal(err)
	}
	sys.UseBackend(cl)
	return sys, ts
}

// statsDoc fetches /db/hospital/stats and returns a lookup by dotted
// path that fails the test on a missing key.
func statsDoc(t *testing.T, ts *httptest.Server) func(path string) float64 {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/db/hospital/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("stats decode: %v", err)
	}
	return func(path string) float64 {
		t.Helper()
		var cur any = doc
		for _, key := range strings.Split(path, ".") {
			m, _ := cur.(map[string]any)
			v, ok := m[key]
			if !ok {
				t.Fatalf("stats: key %q missing (at %q)", path, key)
			}
			cur = v
		}
		n, ok := cur.(float64)
		if !ok {
			t.Fatalf("stats: %q is %T, want a number", path, cur)
		}
		return n
	}
}

// TestStatsSameForEveryCommit pins the /stats document: every key the
// benchmark's svcStats (benchmark/layers.go) takes deltas of is present
// with the meaning it reads into it, and lone updates feed the same
// apply/fsync timers multi-member batches do.
func TestStatsSameForEveryCommit(t *testing.T) {
	doc, err := xmltree.ParseString(hospitalXML)
	if err != nil {
		t.Fatal(err)
	}
	sys, ts := durableOwner(t, doc, scs, PersistOptions{})
	// Every cold query runs exactly one plan, counted under exactly one
	// label, and the label is twig exactly when the plan pruned: the
	// benchmark's twig_share and pruned_intervals_per_query are ratios
	// of these three counters. //treat/insurance is structurally
	// impossible here, so the synopsis prunes it.
	planner := func() (twig, pairwise, pruned float64) {
		stat := statsDoc(t, ts)
		return stat("planner.twig"), stat("planner.pairwise"), stat("planner.prunedIntervals")
	}
	twig, pair, pruned := planner() // all zero: an upload plans nothing
	cold := []string{"//patient/pname", "//patient[age>36]/SSN", "//treat/insurance"}
	for _, q := range cold {
		if _, _, _, err := sys.Query(q); err != nil {
			t.Fatalf("query %s: %v", q, err)
		}
		tw, pw, pr := planner()
		if (tw-twig)+(pw-pair) != 1 {
			t.Errorf("query %s: twig+pairwise advanced by %v, want 1", q, (tw-twig)+(pw-pair))
		}
		if (tw > twig) != (pr > pruned) {
			t.Errorf("query %s: twig advanced by %v but prunedIntervals by %v", q, tw-twig, pr-pruned)
		}
		twig, pair, pruned = tw, pw, pr
	}
	if twig == 0 || pair == 0 {
		t.Errorf("cold queries ran %v twig and %v pairwise plans, want some of each", twig, pair)
	}
	for _, v := range []string{"cholera", "measles"} {
		if n, err := sys.UpdateLeafValues("//patient[pname='Matt']/treat[1]/disease", v); err != nil || n != 1 {
			t.Fatalf("update to %s: n=%d err=%v", v, n, err)
		}
	}

	stat := statsDoc(t, ts)
	if got, want := stat("blocks"), float64(len(sys.HostedDB.Blocks)); got != want {
		t.Errorf("blocks = %v, want %v", got, want)
	}
	if got, want := stat("indexEntries"), float64(len(sys.HostedDB.IndexEntries)); got != want {
		t.Errorf("indexEntries = %v, want %v", got, want)
	}
	// Two lone updates: two committed one-member batches, each with its
	// own WAL record and fsync, both timed; no multi-member batch yet.
	for path, want := range map[string]float64{
		"updates.singles":            2,
		"updates.batches":            0,
		"updates.batched":            0,
		"updates.maxBatch":           0,
		"durability.walSyncs":        2,
		"durability.sinceCheckpoint": 2,
		"overload.rejected":          0,
	} {
		if got := stat(path); got != want {
			t.Errorf("%s = %v, want %v", path, got, want)
		}
	}
	if stat("updates.applyNs") <= 0 || stat("updates.fsyncNs") <= 0 {
		t.Errorf("lone updates left applyNs=%v fsyncNs=%v", stat("updates.applyNs"), stat("updates.fsyncNs"))
	}
	// Every commit invalidates the server caches.
	inval := 0.0
	for _, cache := range []string{"plans", "ranges", "answers"} {
		inval += stat("caches." + cache + ".invalidations")
		stat("caches." + cache + ".hits")
		stat("caches." + cache + ".misses")
	}
	if inval < 2 {
		t.Errorf("cache invalidations = %v after 2 commits", inval)
	}
	stat("stream.answers")
	stat("stream.chunks")
}

// TestGroupCommitSharesFsyncs is the count-based remainder of the
// retired update-throughput harness: 16 concurrent writers over the
// durable service, with no batching configuration at all, must share
// WAL records — writers that prepare while a batch is in flight ride
// the next one — at most one fsync per two updates, and some batch of
// at least two.
func TestGroupCommitSharesFsyncs(t *testing.T) {
	const writers, perWriter = 16, 8
	var sb strings.Builder
	var scSpecs []string
	sb.WriteString("<db>")
	for w := 0; w < writers; w++ {
		fmt.Fprintf(&sb, "<grp><name>g%d</name><v%d>init</v%d></grp>", w, w, w)
		scSpecs = append(scSpecs, fmt.Sprintf("//v%d", w))
	}
	sb.WriteString("</db>")
	doc, err := xmltree.ParseString(sb.String())
	if err != nil {
		t.Fatal(err)
	}
	var fsyncs atomic.Int64
	sys, ts := durableOwner(t, doc, scSpecs, PersistOptions{FS: syncHookFS{hook: func() { fsyncs.Add(1) }}})
	fsyncs0 := fsyncs.Load()

	var wg sync.WaitGroup
	errs := make([]error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter && errs[w] == nil; i++ {
				_, errs[w] = sys.UpdateLeafValues(fmt.Sprintf("//v%d", w), fmt.Sprintf("w%d-%d", w, i))
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v", w, err)
		}
	}

	const updates = writers * perWriter
	stat := statsDoc(t, ts)
	if got := stat("updates.singles") + stat("updates.batched"); got != updates {
		t.Fatalf("service committed %v updates, want %d", got, updates)
	}
	if syncs := stat("durability.walSyncs"); syncs/updates > 0.5 {
		t.Errorf("walSyncs/updates = %v/%d, want at most 0.5", syncs, updates)
	}
	if n := fsyncs.Load() - fsyncs0; float64(n)/updates > 0.5 {
		t.Errorf("disk saw %d fsyncs for %d updates, want at most half", n, updates)
	}
	if got := stat("updates.maxBatch"); got < 2 {
		t.Errorf("maxBatch = %v, want at least 2", got)
	}
	for w := 0; w < writers; w++ {
		nodes, _, _, err := sys.Query(fmt.Sprintf("//v%d", w))
		if err != nil {
			t.Fatal(err)
		}
		if got, want := core.ResultStrings(nodes), fmt.Sprintf("<v%d>w%d-%d</v%d>", w, w, perWriter-1, w); len(got) != 1 || got[0] != want {
			t.Errorf("writer %d's last acked value reads back as %v, want %s", w, got, want)
		}
	}
}
