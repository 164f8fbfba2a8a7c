package core

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/server"
)

func srvOf(t *testing.T, sys *System) *server.Server {
	t.Helper()
	l, ok := sys.Server.(Local)
	if !ok {
		t.Fatalf("backend is %T, want Local", sys.Server)
	}
	return l.S
}

// TestCachedRangeNotAnsweredAfterUpdate is satellite regression #1:
// a range resolution (and the answer built from it) cached at
// generation N must not answer at generation N+1 once an update has
// moved an indexed value. "cholera" matches nobody at gen 1 — the
// empty answer is cached — then an update renames a disease to
// cholera; the same query must now find the patient, not replay the
// cached emptiness.
func TestCachedRangeNotAnsweredAfterUpdate(t *testing.T) {
	sys, _ := hostForUpdate(t)

	const q = "//patient[.//disease='cholera']/pname"
	for i := 0; i < 2; i++ { // second run lands in every cache
		if got := queryValues(t, sys, q); len(got) != 0 {
			t.Fatalf("pre-update cholera patients = %v, want none", got)
		}
	}
	nodes, _, tm, err := sys.Query(q)
	if err != nil || len(nodes) != 0 {
		t.Fatalf("warm query: nodes=%d err=%v", len(nodes), err)
	}
	if tm.Generation != 1 {
		t.Fatalf("pre-update generation echo = %d, want 1", tm.Generation)
	}

	if _, err := sys.UpdateLeafValues("//patient[pname='Matt']/treat[1]/disease", "cholera"); err != nil {
		t.Fatalf("update: %v", err)
	}

	nodes, _, tm, err = sys.Query(q)
	if err != nil {
		t.Fatalf("post-update query: %v", err)
	}
	got := make([]string, len(nodes))
	for i, n := range nodes {
		got[i] = n.LeafValue()
	}
	if len(got) != 1 || got[0] != "Matt" {
		t.Errorf("post-update cholera patients = %v, want [Matt] (stale cached answer?)", got)
	}
	if tm.Generation != 2 {
		t.Errorf("post-update generation echo = %d, want 2", tm.Generation)
	}
	// And the value that moved away is gone — the old range resolution
	// for 'diarrhea'-band keys was not reused either.
	if got := queryValues(t, sys, "//patient[.//disease='leukemia']/pname"); len(got) != 0 {
		t.Errorf("leukemia still answered by %v after rename", got)
	}
}

// TestCacheConcurrentStress hammers the full pipeline from parallel
// readers while an updater flips both diarrhea occurrences back and
// forth, bumping the generation each time. Invariants (checked under
// -race): a reader sees 0 or 2 matching patients — never a torn 1 —
// and the generation echo observed by any single reader is
// monotonic.
func TestCacheConcurrentStress(t *testing.T) {
	sys, _ := hostForUpdate(t)
	srv := srvOf(t, sys)

	const (
		readers = 6
		rounds  = 40
	)
	queries := []string{
		"//patient[.//disease='diarrhea']/pname",
		"//patient[.//disease='colditis']/pname",
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	errc := make(chan error, readers+1)

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var lastGen uint64
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				nodes, _, tm, err := sys.Query(queries[(r+i)%len(queries)])
				if err != nil {
					errc <- err
					return
				}
				// Both occurrences flip in one update: any count but
				// 0 or 2 is a torn read across the generation bump.
				if len(nodes) != 0 && len(nodes) != 2 {
					errc <- fmt.Errorf("torn read: %d patients at generation %d, want 0 or 2", len(nodes), tm.Generation)
					return
				}
				if tm.Generation < lastGen {
					errc <- fmt.Errorf("generation went backwards: observed %d after %d", tm.Generation, lastGen)
					return
				}
				lastGen = tm.Generation
			}
		}(r)
	}

	values := []string{"colditis", "diarrhea"}
	for i := 0; i < rounds; i++ {
		from, to := values[(i+1)%2], values[i%2]
		if _, err := sys.UpdateLeafValues("//treat[disease='"+from+"']/disease", to); err != nil {
			errc <- err
			break
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
	if got, want := srv.Generation(), uint64(1+rounds); got != want {
		t.Errorf("final generation = %d, want %d (every committed update must bump exactly once)", got, want)
	}
	st := srv.CacheStats()
	if st["answers"].Hits+st["ranges"].Hits == 0 {
		t.Logf("note: stress run produced no cache hits (hits are timing-dependent, not required)")
	}
}
