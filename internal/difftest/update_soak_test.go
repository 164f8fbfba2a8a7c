package difftest

import (
	"context"
	"flag"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/remote"
	"repro/internal/xmltree"
)

// The mixed reader/writer soak for the group-commit update pipeline:
//
//	go test ./internal/difftest -race -run UpdateSoak \
//	    -updatesoak.duration=30s -updatesoak.workers=16 -updatesoak.writerpct=25
//
// Writers hammer the group commit continuously while readers run
// verified queries and aggregates against the same System, so the soak
// exercises every barrier (band, block, aggregate) and the chained
// verifier under real concurrency; writers that prepare while a batch
// is in flight share the next one. The writer ratio is configurable;
// `make soak-update-short` runs the 30-second variant inside `check`.
var (
	updateSoakDuration = flag.Duration("updatesoak.duration", 0,
		"run the mixed reader/writer update soak for this long (0 = skip)")
	updateSoakWorkers = flag.Int("updatesoak.workers", 16,
		"total concurrent workers in the update soak")
	updateSoakWriterPct = flag.Int("updatesoak.writerpct", 25,
		"percent of update-soak workers that write (the rest read)")
)

// soakDoc builds a document with one leaf family per writer —
// `<grp><name>gW</name><vW>…</vW>×L</grp>` — so each writer owns a
// tag whose blocks and OPESS band no other writer touches, and the
// group commit can genuinely coalesce their flushes.
func soakDoc(writers, leavesPerFamily int) (*xmltree.Document, []string) {
	var b strings.Builder
	var scs []string
	b.WriteString("<db>")
	for w := 0; w < writers; w++ {
		fmt.Fprintf(&b, "<grp><name>g%d</name>", w)
		for i := 0; i < leavesPerFamily; i++ {
			fmt.Fprintf(&b, "<v%d>init</v%d>", w, w)
		}
		b.WriteString("</grp>")
		scs = append(scs, fmt.Sprintf("//v%d", w))
	}
	b.WriteString("</db>")
	return xmltree.MustParse(b.String()), scs
}

func TestUpdateSoak(t *testing.T) {
	if *updateSoakDuration <= 0 {
		t.Skip("enable with -updatesoak.duration=<d>")
	}
	writers := *updateSoakWorkers * *updateSoakWriterPct / 100
	if writers < 1 {
		writers = 1
	}
	readers := *updateSoakWorkers - writers
	if readers < 1 {
		readers = 1
	}
	const leavesPerFamily = 3

	doc, scs := soakDoc(writers, leavesPerFamily)
	sys, err := core.Host(doc, scs, core.SchemeOpt, []byte("update-soak"))
	if err != nil {
		t.Fatalf("Host: %v", err)
	}
	if err := sys.EnableIntegrity(); err != nil {
		t.Fatalf("EnableIntegrity: %v", err)
	}

	// The full remote stack: update-batch frames over HTTP, verified
	// answers, and the service's commit path behind it.
	svc := remote.NewService()
	if err := remote.RegisterLocal(svc, "soak", sys.HostedDB); err != nil {
		t.Fatalf("register: %v", err)
	}
	ts := httptest.NewServer(svc)
	defer ts.Close()
	sys.UseBackend(remote.Dial(ts.URL, "soak").WithHTTPClient(ts.Client()).
		WithVerifier(sys.Verifier()))

	// Every value any writer will ever commit, precomputed so readers
	// assert membership without synchronizing with the writers.
	const maxWrites = 1 << 20
	allowed := make([]func(string) bool, writers)
	for w := 0; w < writers; w++ {
		prefix := fmt.Sprintf("w%d-", w)
		allowed[w] = func(v string) bool {
			return v == "init" || strings.HasPrefix(v, prefix)
		}
	}

	var (
		wg         sync.WaitGroup
		fail       = make(chan string, *updateSoakWorkers)
		stop       = make(chan struct{})
		maxBatch   atomic.Int64
		writeCount atomic.Int64
		readCount  atomic.Int64
		finalVal   = make([]string, writers)
	)
	record := func(format string, args ...any) {
		select {
		case fail <- fmt.Sprintf(format, args...):
		default:
		}
	}

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			q := fmt.Sprintf("//v%d", w)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if i >= maxWrites {
					return
				}
				v := fmt.Sprintf("w%d-%d", w, i)
				n, tm, err := sys.UpdateLeafValuesTimed(context.Background(), q, v)
				if err != nil {
					record("writer %d: %v", w, err)
					return
				}
				if n != leavesPerFamily {
					record("writer %d: update touched %d leaves, want %d", w, n, leavesPerFamily)
					return
				}
				for {
					cur := maxBatch.Load()
					if int64(tm.UpdateBatchSize) <= cur || maxBatch.CompareAndSwap(cur, int64(tm.UpdateBatchSize)) {
						break
					}
				}
				finalVal[w] = v
				writeCount.Add(1)
			}
		}(w)
	}

	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				w := (g + i) % writers
				q := fmt.Sprintf("//v%d", w)
				if i%7 == 6 {
					// Aggregate path: all of a family's leaves are equal
					// at every committed snapshot, so MIN is a written
					// value too.
					v, _, err := sys.AggregateMinMax(q, false)
					if err != nil {
						record("reader %d aggregate: %v", g, err)
						return
					}
					if !allowed[w](v) {
						record("reader %d aggregate: %q not a value writer %d writes", g, v, w)
						return
					}
					readCount.Add(1)
					continue
				}
				nodes, _, _, err := sys.Query(q)
				if err != nil {
					record("reader %d: %v", g, err)
					return
				}
				if len(nodes) != leavesPerFamily {
					record("reader %d: %d leaves for %s, want %d", g, len(nodes), q, leavesPerFamily)
					return
				}
				first := nodes[0].LeafValue()
				if !allowed[w](first) {
					record("reader %d: %q is not a value writer %d writes", g, first, w)
					return
				}
				for _, n := range nodes[1:] {
					if n.LeafValue() != first {
						record("reader %d: torn snapshot of %s: %q and %q", g, q, first, n.LeafValue())
						return
					}
				}
				readCount.Add(1)
			}
		}(g)
	}

	time.Sleep(*updateSoakDuration)
	close(stop)
	wg.Wait()
	close(fail)
	for msg := range fail {
		t.Error(msg)
	}
	if t.Failed() {
		return
	}

	// Every writer has returned, so every batch has settled. Check the
	// end state: the last acked write of every family must be what a
	// verified query reads back — zero acked loss across however many
	// group commits the soak pushed through.
	for w := 0; w < writers; w++ {
		want := finalVal[w]
		if want == "" {
			want = "init"
		}
		nodes, _, _, err := sys.Query(fmt.Sprintf("//v%d", w))
		if err != nil {
			t.Fatalf("final read of family %d: %v", w, err)
		}
		if len(nodes) != leavesPerFamily {
			t.Fatalf("final read of family %d: %d leaves, want %d", w, len(nodes), leavesPerFamily)
		}
		for _, n := range nodes {
			if n.LeafValue() != want {
				t.Fatalf("family %d: acked write lost: leaf holds %q, last acked %q", w, n.LeafValue(), want)
			}
		}
	}
	if writers >= 2 && maxBatch.Load() < 2 {
		t.Errorf("soak never coalesced a batch (max batch size %d with %d writers)", maxBatch.Load(), writers)
	}
	t.Logf("update soak: %d writes, %d reads, %d writers / %d readers, max batch %d in %v",
		writeCount.Load(), readCount.Load(), writers, readers, maxBatch.Load(), *updateSoakDuration)
}
