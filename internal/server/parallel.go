package server

import (
	"runtime"
	"sync"
)

// Parallel fan-out for the matcher. One query owns one token pool
// sized to the server's parallelism; every fan-out point (context
// sharding in matchChain, predicate filtering, anchor survival in
// Execute) draws extra workers from the same pool and runs inline
// when none are free. Drawing from a shared pool keeps the total
// goroutine count of a query bounded by the configured width even
// when fan-outs nest (a predicate's matchRelative can fan out while
// the main chain already has), so recursive predicate evaluation can
// never multiply workers.
//
// Determinism: every fan-out writes results into index-addressed
// slots and the callers either re-filter in input order or pass the
// merged slice through dedupeSorted, so the answer is byte-identical
// to the sequential evaluation regardless of scheduling.

// parallelThreshold is the minimum number of items one worker must
// have before a fan-out spends a goroutine on a second one.
const parallelThreshold = 32

// tokens is the per-query worker budget: a buffered channel holding
// one token per extra goroutine the query may run. A nil pool means
// sequential evaluation.
type tokens chan struct{}

func newTokens(width int) tokens {
	if width <= 1 {
		return nil
	}
	t := make(tokens, width-1)
	for i := 0; i < width-1; i++ {
		t <- struct{}{}
	}
	return t
}

func (t tokens) tryAcquire() bool {
	if t == nil {
		return false
	}
	select {
	case <-t:
		return true
	default:
		return false
	}
}

func (t tokens) release() {
	if t != nil {
		t <- struct{}{}
	}
}

// parallelFor runs fn(i) for every i in [0, n), sharding the index
// range across the calling goroutine plus as many extra workers as
// the pool has free (at most one per parallelThreshold items). fn
// must be safe to call concurrently and must only write state owned
// by index i.
func parallelFor(pool tokens, n int, fn func(i int)) {
	workers := 1
	for workers < n/parallelThreshold && pool.tryAcquire() {
		workers++
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		lo, hi := w*n/workers, (w+1)*n/workers
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			defer pool.release()
			for i := lo; i < hi; i++ {
				fn(i)
			}
		}(lo, hi)
	}
	for i := 0; i < n/workers; i++ {
		fn(i)
	}
	wg.Wait()
}

// defaultParallelism is the worker-pool width new servers start
// with: one worker per available CPU.
func defaultParallelism() int { return runtime.GOMAXPROCS(0) }

// SetParallelism sets the matcher's worker-pool width; width <= 1
// selects the sequential path. It is safe to call at any time;
// in-flight queries keep the width they started with.
func (s *Server) SetParallelism(width int) {
	if width < 1 {
		width = 1
	}
	s.par.Store(int32(width))
}
