// Package gencache is the cross-query caching primitive of the
// system: a bounded LRU whose entire contents are keyed under one
// (epoch, generation) pair — the server's boot nonce and its
// monotonic db generation counter, bumped by every applied update.
//
// The contract that makes cross-request caching safe here is
// wholesale invalidation: a cache never holds entries from two
// generations at once. Every Get/Put carries the generation the
// caller observed; the first access under a new generation clears
// the cache before anything is served, so a cached value can never
// outlive the database state it was computed from.
//
// The generation only moves forward, under the server's own write
// lock. An access tagged with an older generation of the same epoch
// is a late-running reader from before an update; it is answered with
// a miss and its inserts are dropped, so a slow pre-update query can
// never re-seed the cache with pre-update results. A larger generation
// or another epoch clears the cache and adopts the new pair.
package gencache

import (
	"container/list"
	"expvar"
	"fmt"
	"sync"
)

// Stats is a point-in-time counter snapshot.
type Stats struct {
	Hits          uint64 `json:"hits"`
	Misses        uint64 `json:"misses"`
	Evictions     uint64 `json:"evictions"`
	Invalidations uint64 `json:"invalidations"` // wholesale clears on generation change
	Rejected      uint64 `json:"rejected"`      // stale-generation accesses refused
	Entries       int    `json:"entries"`
	Bytes         int    `json:"bytes"`
}

// Cache is the generation-keyed bounded LRU. Safe for concurrent
// use. Values are stored as-is; callers that cache shared byte
// slices must treat them as immutable for the generation's lifetime
// (the same discipline the server already applies to hosted block
// ciphertexts).
type Cache struct {
	mu         sync.Mutex
	maxEntries int
	maxBytes   int

	epoch, gen uint64
	curBytes   int
	order      *list.List // front = most recently used; holds *entry
	byKey      map[string]*list.Element

	hits, misses, evictions, invalidations, rejected uint64
}

type entry struct {
	key  string
	val  any
	size int
}

// New builds a cache bounded to maxEntries entries and maxBytes
// total accounted size. Non-positive limits default to 1024 entries
// and 64 MiB.
func New(maxEntries, maxBytes int) *Cache {
	if maxEntries <= 0 {
		maxEntries = 1024
	}
	if maxBytes <= 0 {
		maxBytes = 64 << 20
	}
	return &Cache{
		maxEntries: maxEntries,
		maxBytes:   maxBytes,
		order:      list.New(),
		byKey:      map[string]*list.Element{},
	}
}

// admit reconciles the caller's observed (epoch, gen) pair with the
// cache's, clearing on invalidation. It reports whether the caller
// may touch the cache at all. Caller holds mu.
func (c *Cache) admit(epoch, gen uint64) bool {
	if epoch == c.epoch && gen == c.gen {
		return true
	}
	if epoch == c.epoch && gen < c.gen {
		// A reader that started before the last update: its view of
		// the db is gone; serving or storing under it would mix
		// generations.
		c.rejected++
		return false
	}
	// A new generation or epoch: the cached state is unsalvageable.
	if c.order.Len() > 0 {
		c.invalidations++
	}
	c.order.Init()
	c.byKey = map[string]*list.Element{}
	c.curBytes = 0
	c.epoch, c.gen = epoch, gen
	return true
}

// Get returns the value cached under key for the given (epoch, gen)
// pair, if the pair is current and the key present.
func (c *Cache) Get(epoch, gen uint64, key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.admit(epoch, gen) {
		return nil, false
	}
	el, ok := c.byKey[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.order.MoveToFront(el)
	return el.Value.(*entry).val, true
}

// Put stores val (with an accounted size) under key for the given
// (epoch, gen) pair, evicting least-recently-used entries to stay
// within bounds. Values larger than the whole byte budget, and
// inserts tagged with a stale generation, are dropped.
func (c *Cache) Put(epoch, gen uint64, key string, val any, size int) {
	if size > c.maxBytes {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.admit(epoch, gen) {
		return
	}
	if el, ok := c.byKey[key]; ok {
		ent := el.Value.(*entry)
		c.curBytes += size - ent.size
		ent.val, ent.size = val, size
		c.order.MoveToFront(el)
	} else {
		c.byKey[key] = c.order.PushFront(&entry{key: key, val: val, size: size})
		c.curBytes += size
	}
	for c.order.Len() > c.maxEntries || c.curBytes > c.maxBytes {
		oldest := c.order.Back()
		if oldest == nil {
			break
		}
		ent := oldest.Value.(*entry)
		c.order.Remove(oldest)
		delete(c.byKey, ent.key)
		c.curBytes -= ent.size
		c.evictions++
	}
}

// Generation returns the (epoch, generation) pair the current
// contents belong to.
func (c *Cache) Generation() (epoch, gen uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.epoch, c.gen
}

// Clear drops every entry without touching the generation pair
// (benchmarks use it to re-measure the cold path).
func (c *Cache) Clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.order.Init()
	c.byKey = map[string]*list.Element{}
	c.curBytes = 0
}

// Stats returns a counter snapshot.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:          c.hits,
		Misses:        c.misses,
		Evictions:     c.evictions,
		Invalidations: c.invalidations,
		Rejected:      c.rejected,
		Entries:       c.order.Len(),
		Bytes:         c.curBytes,
	}
}

// --- expvar export ---

var (
	pubMu  sync.Mutex
	pubs   = map[string]func() Stats{}
	pubSet = map[string]bool{}
)

// Publish exposes a stats source under /debug/vars as an expvar Func
// named name. Unlike expvar.Publish, re-publishing the same name
// replaces the source instead of panicking, so servers hosting
// several databases (and tests) can re-register freely.
func Publish(name string, stats func() Stats) {
	pubMu.Lock()
	defer pubMu.Unlock()
	pubs[name] = stats
	if !pubSet[name] {
		pubSet[name] = true
		n := name
		expvar.Publish(n, expvar.Func(func() any {
			pubMu.Lock()
			fn := pubs[n]
			pubMu.Unlock()
			if fn == nil {
				return nil
			}
			return fn()
		}))
	}
}

// String renders stats compactly for logs.
func (s Stats) String() string {
	return fmt.Sprintf("hits=%d misses=%d evictions=%d invalidations=%d rejected=%d entries=%d bytes=%d",
		s.Hits, s.Misses, s.Evictions, s.Invalidations, s.Rejected, s.Entries, s.Bytes)
}
