package dataloader

import (
	"context"
	"sync"
	"sync/atomic"

	"repro/internal/chunk"
	"repro/internal/core"
)

// NodeCache is the decoded-chunk cache (core.ChunkCache) a Loader reads
// through, promoted to node scope: the Loaders of one node — a multi-rank
// job's per-rank loaders included — share one through Options.Cache, so a
// chunk several ranks need is fetched and decoded once per epoch per NODE,
// not once per rank. A Loader given none gets a private one. Its keys carry
// dataset handle, commit and the handle's writes, so sharing is safe across
// datasets, commits and writes. A Loader pins each chunk its planned jobs
// still need — one reference per outstanding sub-job, taken by the feeder
// before the job is yielded, dropped when a worker finishes it, the rest
// released when the pipeline shuts down — so a tight budget never evicts a
// chunk between its decode and a job that reads it; the pinned set is the
// working set the pipeline needs resident anyway.
type NodeCache = core.ChunkCache

// NodeCacheStats is a point-in-time copy of a NodeCache's counters,
// aggregated across every Loader sharing the cache. Its Decodes is bounded
// by the distinct chunks visited per epoch, however many Loaders share it.
type NodeCacheStats = core.ChunkCacheStats

// defaultMemoryBudget is the byte budget of a Loader's private NodeCache
// when Options.MemoryBudget is unset, and of NewNodeCache(0).
const defaultMemoryBudget = 256 << 20

// NewNodeCache builds a node-level decoded-chunk cache with the given byte
// budget (<=0 means the Loader default, 256MB). Hand the same cache to
// every Loader on the node via Options.Cache.
func NewNodeCache(budget int64) *NodeCache {
	if budget <= 0 {
		budget = defaultMemoryBudget
	}
	return core.NewChunkCache(budget)
}

// cacheLedger is one Loader's private view of the shared cache's activity:
// every counter increment lands both here and on the node-level NodeCache
// counters. Decodes and coalesces are attributed to the Loader whose call
// ran (or joined) the fetch, so summing a counter across the sharing
// Loaders equals the node-level figure.
type cacheLedger struct {
	hits, misses, coalesced, decodes atomic.Int64
}

// cacheGet reads one chunk through the node cache, in part when s plans it
// so (core.Tensor.ReadSparse), crediting this Loader's ledger.
func (l *Loader) cacheGet(ctx context.Context, t *core.Tensor, chunkID uint64, s *core.SparseChunk) (*chunk.Chunk, error) {
	c, hit, coalesced, err := l.cache.Load(ctx, t.ChunkKey(chunkID, s), func() (*chunk.Chunk, error) {
		if s != nil {
			return t.ReadSparse(ctx, s)
		}
		return t.ReadChunk(ctx, chunkID)
	})
	if hit {
		l.led.hits.Add(1)
		return c, err
	}
	l.led.misses.Add(1)
	if coalesced {
		l.led.coalesced.Add(1)
	} else if err == nil {
		l.led.decodes.Add(1)
	}
	return c, err
}

// pinLedger tracks the pins one Loader currently holds on a (possibly
// shared) NodeCache, so whatever the pipeline leaves outstanding when it
// shuts down — jobs enqueued but never consumed after a cancellation, a
// worker that died mid-job — is released in one sweep instead of leaking
// into a cache that outlives the Loader.
type pinLedger struct {
	mu   sync.Mutex
	held map[core.ChunkKey]int
}

// pin protects key from eviction until a matching unpin; calls nest as a
// reference count, one per outstanding planned job. Pinning a key with no
// resident entry is valid (and the common case): the feeder pins at plan
// time, before the decode lands.
func (p *pinLedger) pin(c *NodeCache, key core.ChunkKey) {
	p.mu.Lock()
	if p.held == nil {
		p.held = map[core.ChunkKey]int{}
	}
	p.held[key]++
	p.mu.Unlock()
	c.Pin(key)
}

func (p *pinLedger) unpin(c *NodeCache, key core.ChunkKey) {
	p.mu.Lock()
	if n, ok := p.held[key]; ok {
		if n > 1 {
			p.held[key] = n - 1
		} else {
			delete(p.held, key)
		}
		p.mu.Unlock()
		c.Unpin(key)
		return
	}
	// Not held: the pipeline already swept this Loader's pins (releaseAll
	// racing a worker's final unpin); dropping it again would strip
	// another Loader's protection.
	p.mu.Unlock()
}

// releaseAll drops every pin the Loader still holds.
func (p *pinLedger) releaseAll(c *NodeCache) {
	p.mu.Lock()
	held := p.held
	p.held = nil
	p.mu.Unlock()
	for key, n := range held {
		for i := 0; i < n; i++ {
			c.Unpin(key)
		}
	}
}
