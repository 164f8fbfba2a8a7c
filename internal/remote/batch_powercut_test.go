package remote

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultfs"
	"repro/internal/wire"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// parkedClient is the owner's remote client with its update-batch
// sends held at a gate until the test lets them through, and its reads
// counted, so a test can tell when a writer has prepared and form a
// batch by count.
type parkedClient struct {
	*Client
	arrived chan int      // the member count of every send reaching the gate; a cycle makes at most three
	gate    chan struct{} // one token lets one send through; closed, all
	reads   atomic.Int64
}

func parkClient(c *Client) *parkedClient {
	return &parkedClient{Client: c, arrived: make(chan int, 8), gate: make(chan struct{})}
}

func (p *parkedClient) Execute(ctx context.Context, q *wire.Query) (*wire.Answer, *wire.StreamStats, error) {
	p.reads.Add(1)
	return p.Client.Execute(ctx, q)
}

func (p *parkedClient) ApplyUpdateBatch(ctx context.Context, b *wire.UpdateBatch) error {
	p.arrived <- len(b.Updates)
	<-p.gate
	return p.Client.ApplyUpdateBatch(ctx, b)
}

// TestPowercutBatchAtomicity crashes the durable service around the
// group commit of whole update batches: every cycle, a starter update
// on its own family is parked in its send while K concurrent writers
// to disjoint leaf families prepare and queue behind it, so they
// coalesce into exactly one update-batch frame; a power cut armed at a
// random write offset once the starter has committed lands before,
// inside, or after that batch's WAL append + fsync. Invariants,
// checked every cycle:
//
//   - batch atomicity: after recovery (before any reconciliation) the
//     server holds either every member's new value or every member's
//     old value — a torn WAL tail drops the whole batch record, never
//     part of it, so no partial generation can exist;
//   - ack after fsync: a batch whose callers saw success is durable —
//     the post-recovery probe must show every member applied;
//   - no falsely acked caller: members of a crashed flush all come
//     back ErrUpdatePending (never a silent success), and one
//     Reconcile settles the whole batch.
func TestPowercutBatchAtomicity(t *testing.T) {
	cycles := powercutCycles(t)
	const (
		families        = 3
		leavesPerFamily = 2
	)
	dir := t.TempDir()
	fs := faultfs.NewFaulty(20260809)
	fs.TornTails(true)
	opts := PersistOptions{FS: fs, CheckpointEvery: 3}

	var xml string
	var familySCs []string
	xml = "<db>"
	for w := 0; w < families; w++ {
		xml += fmt.Sprintf("<grp><name>g%d</name>", w)
		for i := 0; i < leavesPerFamily; i++ {
			xml += fmt.Sprintf("<v%d>init</v%d>", w, w)
		}
		xml += "</grp>"
		familySCs = append(familySCs, fmt.Sprintf("//v%d", w))
	}
	xml += "<grp><name>s</name><vs>init</vs></grp></db>"
	familySCs = append(familySCs, "//vs")
	doc, err := xmltree.ParseString(xml)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.Host(doc, familySCs, core.SchemeOpt, []byte("batch-powercut"))
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.EnableIntegrity(); err != nil {
		t.Fatal(err)
	}
	svc, err := NewPersistentServiceOpts(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc)
	newClient := func(ts *httptest.Server) *Client {
		return Dial(ts.URL, "fam").
			WithHTTPClient(ts.Client()).
			WithRetry(NoRetry).
			WithVerifier(sys.Verifier())
	}
	if err := newClient(ts).Upload(context.Background(), sys.HostedDB); err != nil {
		t.Fatalf("baseline upload: %v", err)
	}
	// probeFamily reads a family's served values straight off the
	// recovered server — translated and decrypted with the owner's
	// tables but WITHOUT the verifier gate, so it can observe the
	// server state while an ambiguous batch still blocks verified
	// queries. Tag-only queries don't touch the value bands a pending
	// batch may have rewritten client-side.
	probeFamily := func(ts *httptest.Server, w int) ([]string, error) {
		probe := Dial(ts.URL, "fam").WithHTTPClient(ts.Client()).WithRetry(NoRetry)
		path, err := xpath.Parse(fmt.Sprintf("//v%d", w))
		if err != nil {
			return nil, err
		}
		qs, err := sys.Client.Translate(path)
		if err != nil {
			return nil, err
		}
		ans, _, err := probe.Execute(context.Background(), qs)
		if err != nil {
			return nil, err
		}
		blocks, err := sys.Client.DecryptBlocks(ans)
		if err != nil {
			return nil, err
		}
		res, err := sys.Client.PostProcessFull(path, ans, blocks)
		if err != nil {
			return nil, err
		}
		var out []string
		for _, n := range res.Nodes {
			out = append(out, n.LeafValue())
		}
		return out, nil
	}

	expected := make([]string, families)
	for w := range expected {
		expected[w] = "init"
	}
	ackedCycles, pendingCycles, replayed, dropped := 0, 0, 0, 0
	for cycle := 0; cycle < cycles; cycle++ {
		newVals := make([]string, families)
		errs := make([]error, families)
		for w := range newVals {
			newVals[w] = fmt.Sprintf("c%d-w%d", cycle, w)
		}

		// The starter leads and parks; every writer's read runs while
		// it is parked, so all of them queue behind it before it
		// settles, and the first of them sends them all as one frame.
		pc := parkClient(newClient(ts))
		sys.UseBackend(pc)
		starter := make(chan error, 1)
		go func() {
			_, err := sys.UpdateLeafValues("//vs", fmt.Sprintf("c%d-s", cycle))
			starter <- err
		}()
		<-pc.arrived
		reads := pc.reads.Load()
		var wg sync.WaitGroup
		for w := 0; w < families; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				_, _, errs[w] = sys.UpdateLeafValuesTimed(
					context.Background(), fmt.Sprintf("//v%d", w), newVals[w])
			}(w)
		}
		for deadline := time.Now().Add(time.Minute); pc.reads.Load() < reads+families; {
			if time.Now().After(deadline) {
				t.Fatalf("cycle %d: writers never read beside the parked starter", cycle)
			}
			time.Sleep(100 * time.Microsecond)
		}
		pc.gate <- struct{}{}
		if err := <-starter; err != nil {
			t.Fatalf("cycle %d: starter update: %v", cycle, err)
		}
		if n := <-pc.arrived; n != families {
			t.Fatalf("cycle %d: the queued writers sent %d members, want %d", cycle, n, families)
		}
		fs.CrashAfterWrites(int64(20 + (cycle*997)%2500))
		close(pc.gate)
		wg.Wait()

		// One frame, one outcome: the whole batch acked or the whole
		// batch went ambiguous. A member reporting definite success
		// while a sibling is pending would be a falsely acked caller.
		acked, pending := 0, 0
		for w, err := range errs {
			switch {
			case err == nil:
				acked++
			case errors.Is(err, core.ErrUpdatePending):
				pending++
			default:
				t.Fatalf("cycle %d: writer %d: unexpected update error: %v", cycle, w, err)
			}
		}
		if acked != 0 && pending != 0 {
			t.Fatalf("cycle %d: split batch outcome: %d acked, %d pending", cycle, acked, pending)
		}
		if acked == families {
			ackedCycles++
		} else {
			pendingCycles++
		}

		if !fs.Crashed() {
			fs.Crash()
		}
		ts.Close()
		svc.Close()
		fs.Reopen()

		svc, err = NewPersistentServiceOpts(dir, opts)
		if err != nil {
			t.Fatalf("cycle %d: recovery failed hard: %v", cycle, err)
		}
		if q := svc.Quarantined(); len(q) != 0 {
			t.Fatalf("cycle %d: clean power cut produced quarantine: %+v", cycle, q)
		}
		ts = httptest.NewServer(svc)
		sys.UseBackend(newClient(ts))

		// Atomicity probe, before reconciliation: every family is
		// wholly old or wholly new, and all families agree — the WAL
		// replayed the batch record completely or dropped it
		// completely.
		applied := 0
		for w := 0; w < families; w++ {
			vals, err := probeFamily(ts, w)
			if err != nil {
				t.Fatalf("cycle %d: probe family %d: %v", cycle, w, err)
			}
			if len(vals) != leavesPerFamily {
				t.Fatalf("cycle %d: probe family %d: %d leaves, want %d", cycle, w, len(vals), leavesPerFamily)
			}
			for _, v := range vals[1:] {
				if v != vals[0] {
					t.Fatalf("cycle %d: family %d torn within one member: %q vs %q", cycle, w, vals[0], v)
				}
			}
			switch vals[0] {
			case newVals[w]:
				applied++
			case expected[w]:
			default:
				t.Fatalf("cycle %d: family %d holds %q, which is neither pre-batch %q nor post-batch %q",
					cycle, w, vals[0], expected[w], newVals[w])
			}
		}
		if applied != 0 && applied != families {
			t.Fatalf("cycle %d: partial batch survived recovery: %d of %d members applied", cycle, applied, families)
		}
		if acked == families && applied != families {
			t.Fatalf("cycle %d: acked batch not durable: %d of %d members applied after the cut", cycle, applied, families)
		}
		if applied == families {
			replayed++
		} else {
			dropped++
		}

		// Settle the at-most-one ambiguous batch; afterwards every
		// member is committed and the verified path serves it.
		if sys.UpdatePending() {
			if _, err := sys.Reconcile(context.Background()); err != nil {
				t.Fatalf("cycle %d: reconcile: %v", cycle, err)
			}
		}
		copy(expected, newVals)
		for w := 0; w < families; w++ {
			nodes, _, _, err := sys.Query(fmt.Sprintf("//v%d", w))
			if err != nil {
				t.Fatalf("cycle %d: verified query of family %d after recovery: %v", cycle, w, err)
			}
			if len(nodes) != leavesPerFamily {
				t.Fatalf("cycle %d: family %d: %d leaves, want %d", cycle, w, len(nodes), leavesPerFamily)
			}
			for _, n := range nodes {
				if n.LeafValue() != expected[w] {
					t.Fatalf("cycle %d: family %d: acked value lost: %q want %q",
						cycle, w, n.LeafValue(), expected[w])
				}
			}
		}
	}
	ts.Close()
	svc.Close()
	t.Logf("batch powercut: %d cycles, all group commits atomic (%d acked, %d ambiguous; %d batches durable at recovery, %d wholly absent)",
		cycles, ackedCycles, pendingCycles, replayed, dropped)
}
