package client

import (
	"fmt"
	"strconv"

	"repro/internal/gencache"
	"repro/internal/wire"
)

// BlockCache is a bounded LRU of decrypted block plaintexts, keyed
// by (epoch, generation, blockID): the server's generation echo pins
// each plaintext to the db state its ciphertext came from, so a
// repeated query skips the AES-GCM work for blocks it already
// decrypted — and an answer arriving under a different (epoch,
// generation) pair (an update, a restarted server, a rollback)
// drops everything rather than ever serving stale plaintext (the
// gencache Adopt policy).
//
// Insertion happens only after the block authenticated: AES-GCM
// decryption is itself an integrity check, and when Merkle
// verification is enabled the whole answer was verified before
// decryption even starts (in the verifying transport, or in
// core.System's executeWithFallback when the transport did not; stale
// fallback answers bypass this cache entirely) — so a cache hit is
// never an unverified byte.
//
// Cached plaintexts are shared, not copied: post-processing only
// reads them (splice and appendAnnotated write into fresh buffers),
// and every consumer must preserve that read-only discipline.
type BlockCache struct {
	c *gencache.Cache
}

// NewBlockCache builds a cache bounded to maxEntries plaintexts and
// maxBytes total plaintext bytes. Non-positive limits default to
// 4096 entries and 128 MiB.
func NewBlockCache(maxEntries, maxBytes int) *BlockCache {
	if maxEntries <= 0 {
		maxEntries = 4096
	}
	if maxBytes <= 0 {
		maxBytes = 128 << 20
	}
	return &BlockCache{c: gencache.New(gencache.Adopt, maxEntries, maxBytes)}
}

// Stats snapshots the hit/miss/eviction counters.
func (b *BlockCache) Stats() gencache.Stats { return b.c.Stats() }

// Len returns the number of cached plaintexts.
func (b *BlockCache) Len() int { return b.c.Stats().Entries }

// Clear drops every cached plaintext (benchmarks use it to
// re-measure the cold path).
func (b *BlockCache) Clear() { b.c.Clear() }

func (b *BlockCache) get(epoch, gen uint64, id int) ([]byte, bool) {
	v, ok := b.c.Get(epoch, gen, strconv.Itoa(id))
	if !ok {
		return nil, false
	}
	return v.([]byte), true
}

func (b *BlockCache) put(epoch, gen uint64, id int, pt []byte) {
	b.c.Put(epoch, gen, strconv.Itoa(id), pt, len(pt))
}

// DecryptBlocksCached is DecryptBlocks backed by a BlockCache:
// blocks already decrypted under the answer's (epoch, generation)
// pair are reused, the rest are decrypted across the client's
// worker width and inserted. It reports how many blocks were served
// from the cache. A nil cache, or an answer without a generation
// echo (a legacy server, or a stale-fallback copy whose freshness
// is unknown), falls back to plain decryption and caches nothing.
func (c *Client) DecryptBlocksCached(ans *wire.Answer, bc *BlockCache) (map[int][]byte, int, error) {
	if bc == nil || ans.Generation == 0 {
		out, err := c.DecryptBlocks(ans)
		return out, 0, err
	}
	out := make(map[int][]byte, len(ans.Blocks))
	var missIdx []int
	for i, id := range ans.BlockIDs {
		if pt, ok := bc.get(ans.Epoch, ans.Generation, id); ok {
			out[id] = pt
		} else {
			missIdx = append(missIdx, i)
		}
	}
	hits := len(ans.BlockIDs) - len(missIdx)
	if len(missIdx) == 0 {
		return out, hits, nil
	}
	n := len(missIdx)
	pts := make([][]byte, n)
	errs := make([]error, n)
	c.parallelFor(n, decryptParallelThreshold, func(j int) {
		i := missIdx[j]
		pt, err := c.keys.DecryptBlock(ans.Blocks[i])
		if err != nil {
			errs[j] = fmt.Errorf("client: block %d: %w", ans.BlockIDs[i], err)
			return
		}
		pts[j] = pt
	})
	for j := 0; j < n; j++ {
		if errs[j] != nil {
			return nil, 0, errs[j]
		}
		id := ans.BlockIDs[missIdx[j]]
		out[id] = pts[j]
		// Decryption succeeded, i.e. the AES-GCM tag authenticated:
		// only now may the plaintext enter the cache.
		bc.put(ans.Epoch, ans.Generation, id, pts[j])
	}
	return out, hits, nil
}
