package difftest

import (
	"flag"
	"testing"
	"time"

	"repro/internal/xmltree"
)

// difftestDuration opts into the open-ended mode: keep generating
// fresh random cases until the budget is spent, e.g.
//
//	go test ./internal/difftest -run OpenEnded -difftest.duration=1m
var difftestDuration = flag.Duration("difftest.duration", 0,
	"run randomized differential cases for this long (0 = fixed corpus only)")

func TestDifferentialCorpus(t *testing.T) {
	seeds := CorpusSeeds
	if testing.Short() {
		seeds = seeds[:4]
	}
	for _, seed := range seeds {
		c := GenCase(seed)
		t.Run(c.DocName+"/"+itoa(seed), func(t *testing.T) {
			t.Parallel()
			if err := RunCase(c); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestFirstStepPositionalPredicates pins positions on a query's first
// step: a position counts among the node's siblings, so the server
// must ship each match inside its parent. When it shipped each x as
// its own fragment, the client counted positions across fragments:
// //x[1] returned only the first x under opt, app and leaf, and //a[1]
// returned the second a under sub.
func TestFirstStepPositionalPredicates(t *testing.T) {
	doc, err := xmltree.ParseString(`<r><a><x>1</x><x>2</x><y>5</y></a><a><x>3</x><x>4</x></a></r>`)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{"//x[1]", "//x[2]", "//a[1]", "//a[2]", "/r/a/x[1]", "//a/x[2]", "//x[1][.>2]", "/descendant::x[1]", "//a/descendant::x[3]", "//x/following-sibling::x[1]", "//y/preceding-sibling::x[1]", "/r/*[2]", "/r[1]/a[2]/x", "//*[2]", "//a[x[2]=4]"} {
		c := &Case{DocName: "positions", Doc: doc, SCs: []string{"//a:(/x, /y)"}, Queries: []string{q}}
		if err := RunCase(c); err != nil {
			t.Error(err)
		}
	}
}

// TestDifferentialCorpusWithUpdates runs the fixed corpus through
// the update-interleaved mode: queries run cold and hot, owner
// updates land between passes, and every post-update pass must match
// the mirrored plaintext — the caching layer's end-to-end contract.
func TestDifferentialCorpusWithUpdates(t *testing.T) {
	seeds := CorpusSeeds
	if testing.Short() {
		seeds = seeds[:4]
	}
	for _, seed := range seeds {
		c := GenCase(seed)
		t.Run(c.DocName+"/"+itoa(seed), func(t *testing.T) {
			t.Parallel()
			if err := RunCaseWithUpdates(c); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestDifferentialCorpusBatchedUpdates runs the fixed corpus through
// the group-commit mode: concurrent callers update disjoint targets
// through the batcher between query passes, each caller's edit is
// individually proven against the batch root, and every pass must
// match the mirrored plaintext. Each case spins up five systems and
// waits on batch timers, so the every-`go test` run uses a subset;
// the full corpus runs from the soak targets.
func TestDifferentialCorpusBatchedUpdates(t *testing.T) {
	seeds := CorpusSeeds
	if testing.Short() {
		seeds = seeds[:4]
	}
	for _, seed := range seeds {
		c := GenCase(seed)
		t.Run(c.DocName+"/"+itoa(seed), func(t *testing.T) {
			t.Parallel()
			if err := RunCaseWithBatchedUpdates(c); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestDifferentialOpenEnded draws fresh seeds for the configured
// duration. The starting seed is the wall clock, so successive runs
// explore different cases; the failure message carries the seed for
// replay (add it to CorpusSeeds to pin the regression). Every case
// runs in the update-interleaved mode — with the caches enabled and
// queries repeated hot, the soak exercises exactly the invalidation
// story the generation counter is supposed to guarantee.
func TestDifferentialOpenEnded(t *testing.T) {
	if *difftestDuration <= 0 {
		t.Skip("enable with -difftest.duration=<d>")
	}
	deadline := time.Now().Add(*difftestDuration)
	seed := uint64(time.Now().UnixNano())
	cases := 0
	for time.Now().Before(deadline) {
		if err := RunCaseWithUpdates(GenCase(seed)); err != nil {
			t.Fatal(err)
		}
		seed++
		cases++
	}
	t.Logf("differential: %d randomized update-interleaved cases passed in %v", cases, *difftestDuration)
}

// TestGenCaseDeterministic pins the generator: the same seed must
// yield the same case, or corpus seeds stop being replayable.
func TestGenCaseDeterministic(t *testing.T) {
	a, b := GenCase(42), GenCase(42)
	if a.DocName != b.DocName || len(a.Queries) != len(b.Queries) || len(a.SCs) != len(b.SCs) {
		t.Fatalf("GenCase(42) not deterministic: %+v vs %+v", a, b)
	}
	for i := range a.Queries {
		if a.Queries[i] != b.Queries[i] {
			t.Fatalf("query %d differs: %q vs %q", i, a.Queries[i], b.Queries[i])
		}
	}
	for i := range a.SCs {
		if a.SCs[i] != b.SCs[i] {
			t.Fatalf("SC %d differs: %q vs %q", i, a.SCs[i], b.SCs[i])
		}
	}
	if a.Doc.String() != b.Doc.String() {
		t.Fatalf("document differs between identical seeds")
	}
}

func itoa(u uint64) string {
	if u == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for u > 0 {
		i--
		buf[i] = byte('0' + u%10)
		u /= 10
	}
	return string(buf[i:])
}
