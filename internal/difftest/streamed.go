package difftest

import (
	"fmt"
	"net/http/httptest"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/remote"
	"repro/internal/xmltree"
)

// RunCaseStreamed runs the case's queries through a real HTTP round
// trip, where every answer is an SXS1 stream that is decoded,
// verified and then decrypted: a cold pass, then a repeat pass
// answered from the server's caches. Every pass must match the
// plaintext evaluation. Queries within a pass run concurrently, so
// under -race this doubles as a data-race probe of the stream decode
// and of concurrent queries sharing one owner.
func RunCaseStreamed(c *Case) error {
	for _, name := range Schemes {
		if err := runStreamedScheme(c, name); err != nil {
			return err
		}
	}
	return nil
}

// streamWorkers is the per-pass query concurrency: enough to keep
// several streams in flight at once without drowning the race
// detector.
const streamWorkers = 4

func runStreamedScheme(c *Case, name core.SchemeName) error {
	sys, err := hostScheme(c, name, c.Doc)
	if err != nil {
		return err
	}
	svc := remote.NewService()
	if err := remote.RegisterLocal(svc, "d", sys.HostedDB); err != nil {
		return fmt.Errorf("seed %d (%s): scheme %s: register: %w", c.Seed, c.DocName, name, err)
	}
	ts := httptest.NewServer(svc)
	defer ts.Close()
	sys.UseBackend(remote.Dial(ts.URL, "d").WithHTTPClient(ts.Client()).WithVerifier(sys.Verifier()))
	for _, pass := range []string{"cold", "repeat"} {
		if err := runQueriesConcurrent(c, name, sys, c.Doc, pass); err != nil {
			return err
		}
	}
	return nil
}

// runQueriesConcurrent is runQueries with the case's queries spread
// across streamWorkers goroutines (single pass; the caller sequences
// the passes explicitly).
func runQueriesConcurrent(c *Case, name core.SchemeName, sys *core.System, ref *xmltree.Document, label string) error {
	var (
		mu       sync.Mutex
		firstErr error
		wg       sync.WaitGroup
	)
	record := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	jobs := make(chan string)
	for w := 0; w < streamWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for q := range jobs {
				want, err := plaintext(ref, q)
				if err != nil {
					record(fmt.Errorf("seed %d (%s): query %q: plaintext: %w", c.Seed, c.DocName, q, err))
					continue
				}
				nodes, _, _, err := sys.Query(q)
				if err != nil {
					record(fmt.Errorf("seed %d (%s): scheme %s query %q (%s): %w",
						c.Seed, c.DocName, name, q, label, err))
					continue
				}
				got := core.ResultStrings(nodes)
				sort.Strings(got)
				if !equal(got, want) {
					record(fmt.Errorf("seed %d (%s): scheme %s query %q (%s):\n  plaintext (%d): %v\n  encrypted (%d): %v",
						c.Seed, c.DocName, name, q, label, len(want), want, len(got), got))
				}
			}
		}()
	}
	for _, q := range c.Queries {
		jobs <- q
	}
	close(jobs)
	wg.Wait()
	return firstErr
}
