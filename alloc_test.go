package repro

import "testing"

// TestBulkPostProcessAllocs bounds the allocations of one bulk answer's
// reconstruction (BenchmarkBulkPostProcess's input). The one-pass
// assembly and the single-walk "//" step allocate 9 314 times on it;
// the bound is that plus 20 %. The splice, combined parse and tree
// rewrite they replaced, with the per-base "//" step, allocated 55 436,
// and 10 358 while xpath.DecodeValue still handed every word starting
// with i/I/n/N to strconv.ParseFloat.
func TestBulkPostProcessAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under -race")
	}
	if testing.Short() {
		t.Skip("hosts the 512 KiB benchmark document")
	}
	sys, path, ans, blocks := bulkAnswer(t)
	var results int
	allocs := testing.AllocsPerRun(3, func() {
		nodes, _, err := sys.Client.PostProcess(path, ans, blocks)
		if err != nil {
			t.Fatal(err)
		}
		results = len(nodes)
	})
	t.Logf("%d results, %.0f allocations", results, allocs)
	if results == 0 {
		t.Fatal("the bulk query selects nothing")
	}
	if bound := 9314 * 1.2; allocs > bound {
		t.Errorf("PostProcess of the bulk answer allocates %.0f times, bound %.0f", allocs, bound)
	}
}
