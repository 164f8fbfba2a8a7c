package gencache

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

func TestBasicGetPut(t *testing.T) {
	c := New(4, 1<<20)
	if _, ok := c.Get(0, 1, "a"); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put(0, 1, "a", "va", 2)
	v, ok := c.Get(0, 1, "a")
	if !ok || v.(string) != "va" {
		t.Fatalf("Get(a) = %v, %v; want va, true", v, ok)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 || st.Bytes != 2 {
		t.Fatalf("stats %+v", st)
	}
}

func TestEntryBoundEvictsLRU(t *testing.T) {
	c := New(2, 1<<20)
	c.Put(0, 1, "a", 1, 1)
	c.Put(0, 1, "b", 2, 1)
	c.Get(0, 1, "a") // a now most recent
	c.Put(0, 1, "c", 3, 1)
	if _, ok := c.Get(0, 1, "b"); ok {
		t.Error("b should have been evicted (LRU)")
	}
	if _, ok := c.Get(0, 1, "a"); !ok {
		t.Error("a should have survived")
	}
	if st := c.Stats(); st.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", st.Evictions)
	}
}

func TestByteBound(t *testing.T) {
	c := New(100, 10)
	c.Put(0, 1, "a", nil, 6)
	c.Put(0, 1, "b", nil, 6) // over budget: a evicted
	if _, ok := c.Get(0, 1, "a"); ok {
		t.Error("a should have been evicted by the byte bound")
	}
	c.Put(0, 1, "huge", nil, 11) // larger than whole budget: dropped
	if _, ok := c.Get(0, 1, "huge"); ok {
		t.Error("oversized value must not be cached")
	}
}

// TestMonotonicInvalidation: a generation bump wipes the cache
// before anything is served, and late accesses tagged with the old
// generation are refused in both directions.
func TestMonotonicInvalidation(t *testing.T) {
	c := New(16, 1<<20)
	c.Put(0, 1, "k", "gen1", 4)

	// New generation: wholesale clear.
	if _, ok := c.Get(0, 2, "k"); ok {
		t.Fatal("generation bump must invalidate")
	}
	c.Put(0, 2, "k", "gen2", 4)

	// A straggler still at gen 1 gets neither hit nor insert rights.
	if _, ok := c.Get(0, 1, "k"); ok {
		t.Fatal("stale-generation Get must miss")
	}
	c.Put(0, 1, "k", "stale", 5)
	v, ok := c.Get(0, 2, "k")
	if !ok || v.(string) != "gen2" {
		t.Fatalf("stale Put must not overwrite: got %v, %v", v, ok)
	}
	if st := c.Stats(); st.Rejected != 2 || st.Invalidations != 1 {
		t.Errorf("stats %+v: want 2 rejections, 1 invalidation", st)
	}

	// Another epoch is another server incarnation: even an older
	// generation there clears the cache and is adopted.
	if _, ok := c.Get(1, 1, "k"); ok {
		t.Fatal("epoch change must invalidate")
	}
	c.Put(1, 1, "k", "epoch1", 4)
	if v, ok := c.Get(1, 1, "k"); !ok || v.(string) != "epoch1" {
		t.Fatalf("the new epoch's generation must be adopted: got %v, %v", v, ok)
	}
}

// TestConcurrentStress hammers one cache with parallel readers and
// an updater that keeps bumping the generation, under -race. Each
// value encodes the generation it was stored under; a reader that
// ever gets a hit whose value names a different generation than the
// key it asked with has seen a torn (cross-generation) read.
func TestConcurrentStress(t *testing.T) {
	c := New(64, 1<<20)
	var gen atomic.Uint64
	gen.Store(1)
	stop := make(chan struct{})

	var wg sync.WaitGroup
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			last := uint64(0)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				g := gen.Load()
				if g < last {
					t.Errorf("reader %d: generation went backwards: %d after %d", r, g, last)
					return
				}
				last = g
				key := fmt.Sprintf("k%d", i%32)
				if v, ok := c.Get(0, g, key); ok {
					if v.(uint64) > g {
						// A cached value from generation v > g can only
						// be served to a reader asking at g if entries
						// survived an invalidation boundary.
						t.Errorf("reader %d: value from gen %d served at gen %d", r, v.(uint64), g)
						return
					}
				} else {
					c.Put(0, g, key, g, 8)
				}
			}
		}(r)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			gen.Add(1)
		}
	}()

	// Let the readers observe the moving generation, then stop.
	for gen.Load() < 201 {
	}
	close(stop)
	wg.Wait()
}

func TestClearKeepsGeneration(t *testing.T) {
	c := New(16, 1<<20)
	c.Put(3, 5, "k", 1, 1)
	c.Clear()
	if _, ok := c.Get(3, 5, "k"); ok {
		t.Fatal("Clear must drop entries")
	}
	if e, g := c.Generation(); e != 3 || g != 5 {
		t.Fatalf("Clear must keep the generation pair, got (%d,%d)", e, g)
	}
}

func TestPublishReplacesWithoutPanic(t *testing.T) {
	c1 := New(4, 100)
	c2 := New(4, 100)
	Publish("gencache_test_stats", c1.Stats)
	Publish("gencache_test_stats", c2.Stats) // must not panic
}
