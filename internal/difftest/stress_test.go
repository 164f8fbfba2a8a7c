package difftest

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
)

// TestConcurrentQueryUpdateStress drives one hosted system with
// mixed readers and writers, meant to run under -race: writers
// rotate every //author/last value through a known set (each update
// rewrites all of them to one value), while readers query and
// aggregate concurrently. The System's reader/writer lock promises
// each answer is a clean pre- or post-update snapshot, so every read
// must see all lasts equal to each other and drawn from the written
// set — a torn read (mid-update mix) or a stale-map read (client
// translation state mid-rewrite) fails the assertion or trips the
// race detector.
func TestConcurrentQueryUpdateStress(t *testing.T) {
	doc := datagen.NASA(40, 7)
	sys, err := core.Host(doc, datagen.NASASCs(), core.SchemeOpt, []byte("stress-master"))
	if err != nil {
		t.Fatalf("Host: %v", err)
	}

	// Settle every target leaf to a known value so the first reads
	// already have a single-valued snapshot to assert against.
	values := map[string]bool{"w0": true}
	if n, err := sys.UpdateLeafValues("//author/last", "w0"); err != nil || n == 0 {
		t.Fatalf("settle update: n=%d err=%v", n, err)
	}

	const (
		writers          = 2
		readers          = 6
		writesPerWriter  = 5
		queriesPerReader = 15
	)
	for w := 0; w < writers; w++ {
		for i := 0; i < writesPerWriter; i++ {
			values[fmt.Sprintf("w%d-%d", w, i)] = true
		}
	}

	var wg sync.WaitGroup
	fail := make(chan string, readers*queriesPerReader+writers*writesPerWriter)

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < writesPerWriter; i++ {
				v := fmt.Sprintf("w%d-%d", w, i)
				if _, err := sys.UpdateLeafValues("//author/last", v); err != nil {
					fail <- fmt.Sprintf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}

	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < queriesPerReader; i++ {
				if i%5 == 4 {
					// Aggregate path: with all lasts equal at any
					// snapshot, MIN must itself be a written value.
					v, _, err := sys.AggregateMinMax("//author/last", false)
					if err != nil {
						fail <- fmt.Sprintf("reader %d aggregate: %v", g, err)
						return
					}
					if !values[v] {
						fail <- fmt.Sprintf("reader %d aggregate: %q not a written value", g, v)
						return
					}
					continue
				}
				nodes, _, _, err := sys.Query("//author/last")
				if err != nil {
					fail <- fmt.Sprintf("reader %d: %v", g, err)
					return
				}
				if len(nodes) == 0 {
					fail <- fmt.Sprintf("reader %d: no author lasts", g)
					return
				}
				got := make([]string, len(nodes))
				for j, n := range nodes {
					got[j] = n.LeafValue()
				}
				first := got[0]
				if !values[first] {
					fail <- fmt.Sprintf("reader %d: %q is not a written value", g, first)
					return
				}
				for _, v := range got[1:] {
					if v != first {
						fail <- fmt.Sprintf("reader %d: torn snapshot: saw both %q and %q", g, first, v)
						return
					}
				}
			}
		}(g)
	}

	wg.Wait()
	close(fail)
	for msg := range fail {
		t.Error(msg)
	}
}
