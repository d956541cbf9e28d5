package dataloader

import (
	"context"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/chunk"
	"repro/internal/core"
	"repro/internal/storage"
)

// NodeCache is the decoded-chunk buffer of §3.5 ("maintaining a buffer
// cache of fetched and unutilized data") promoted to node scope: one cache
// that any number of Loaders — including the per-rank loaders of a
// multi-rank training job colocated on one node — share through
// Options.Cache, so a chunk needed by several ranks is fetched and decoded
// exactly once per epoch per NODE, not once per rank. Loaders that are not
// given a shared cache get a private one, which degrades to exactly the old
// per-Loader behavior.
//
// It is the decoded-chunk policy over storage.Cache, the core it shares
// with storage.LRU and storage.Disk: the sharded LRU table, the eviction
// rule and the coalesced-miss protocol — concurrent fetches of one chunk,
// across workers and every sharing Loader, collapse into a single
// fetch+decode that everyone receives — live there. What is
// the NodeCache's own is the key, the loader, and the per-Loader ledgers.
//
// Entries are keyed by (dataset scope, commit-scoped chunk object key):
// core.Dataset.ScopeID disambiguates dataset handles (two datasets sharing
// a node cache can never serve each other's bytes even if their tensor
// names and chunk ids collide), and core.Tensor.ChunkIdentity bakes in the
// owning version directory, so the same chunk id on two branches — or
// rebound across a checkout — is two distinct cache entries.
//
// Eviction is least-recently-used over a byte budget, with one contract on
// top: chunks with outstanding planned jobs are pinned and never evicted,
// so a tight budget cannot evict a chunk between its decode and a
// planned-but-unstarted job that needs it (which would force a silent
// re-decode, breaking the documented fetch+decode-once contract). Pins are
// reference counts — one per outstanding sub-job — taken by the job feeder
// before a job is enqueued and dropped when the worker finishes it; a
// Loader releases any leftovers when its pipeline shuts down, so an aborted
// epoch never leaks pins into a long-lived shared cache. The budget is soft
// against pins: if every resident chunk is pinned the cache runs over
// budget rather than breaking the contract (bounded by
// workers×queue-depth×chunk-size, the same working set the pipeline needs
// resident anyway).
type NodeCache struct {
	table   *storage.Cache[cacheKey, []chunk.Sample]
	decodes atomic.Int64
}

// NodeCacheStats is a point-in-time copy of a NodeCache's node-level
// counters, aggregated across every Loader sharing the cache.
type NodeCacheStats struct {
	// Hits and Misses count lookups against resident decoded chunks.
	Hits, Misses int64
	// Coalesced counts gets that piggybacked on another caller's in-flight
	// fetch+decode (singleflight) instead of running their own.
	Coalesced int64
	// Decodes counts fetch+decodes that actually reached the tensor read
	// path; the per-node decode-once contract bounds it by the distinct
	// chunks visited per epoch, no matter how many Loaders share the cache.
	Decodes int64
	// Evictions counts entries dropped to stay under the byte budget.
	Evictions int64
	// UsedBytes/Entries describe the resident population; Pinned counts
	// entries currently protected by outstanding planned jobs.
	UsedBytes, Entries, Pinned int64
}

type cacheKey struct {
	// scope is the owning dataset handle's process-unique identity
	// (core.Dataset.ScopeID).
	scope uint64
	// obj is the commit-scoped chunk object key
	// (core.Tensor.ChunkIdentity): versions/<vid>/tensors/<name>/chunks/<id>.
	obj string
}

func (k cacheKey) flightKey() string {
	return strconv.FormatUint(k.scope, 36) + "\x00" + k.obj
}

// minShardBytes floors the automatic per-shard budget: decoded chunks are a
// few to ~16MB, so a 32MB shard always fits several.
const minShardBytes = 32 << 20

// NewNodeCache builds a node-level decoded-chunk cache with the given byte
// budget (<=0 means the Loader default, 256MB). Hand the same cache to
// every Loader on the node via Options.Cache.
func NewNodeCache(budget int64) *NodeCache {
	if budget <= 0 {
		budget = 256 << 20
	}
	return &NodeCache{table: storage.NewCache(budget, storage.ShardsFor(budget, minShardBytes),
		storage.CacheFuncs[cacheKey, []chunk.Sample]{
			// The scope is folded in ahead of the object key so distinct
			// datasets spread over the shards independently.
			Hash: func(k cacheKey) uint64 {
				return storage.HashString(storage.HashUint64(storage.HashSeed, k.scope), k.obj)
			},
			Size: func(samples []chunk.Sample) (bytes int64) {
				for _, s := range samples {
					bytes += int64(len(s.Data))
				}
				return bytes
			},
			FlightKey: cacheKey.flightKey,
		})}
}

// Budget returns the cache's total byte budget across shards.
func (c *NodeCache) Budget() int64 { return c.table.Capacity() }

// cacheLedger is one Loader's private view of the shared cache's activity:
// every counter increment lands both here and on the node-level NodeCache
// counters. Decodes and coalesces are attributed to the Loader whose call
// ran (or joined) the fetch, so summing a counter across the sharing
// Loaders equals the node-level figure.
type cacheLedger struct {
	hits, misses, coalesced, decodes atomic.Int64
}

// get returns the samples of one chunk, fetching and decoding through t
// once per chunk per node regardless of how many workers — of how many
// Loaders — ask concurrently. led receives the calling Loader's share of
// the counters.
func (c *NodeCache) get(ctx context.Context, led *cacheLedger, scope uint64, t *core.Tensor, chunkID uint64) ([]chunk.Sample, error) {
	key := cacheKey{scope: scope, obj: t.ChunkIdentity(chunkID)}
	samples, hit, coalesced, err := c.table.GetOrLoad(ctx, key, func() ([]chunk.Sample, error) {
		samples, err := t.ReadChunkSamples(ctx, chunkID)
		if err != nil {
			return nil, err
		}
		c.decodes.Add(1)
		led.decodes.Add(1)
		c.table.Add(key, samples)
		return samples, nil
	})
	if hit {
		led.hits.Add(1)
	} else {
		led.misses.Add(1)
		if coalesced {
			led.coalesced.Add(1)
		}
	}
	return samples, err
}

// Stats reports the cache's node-level counters.
func (c *NodeCache) Stats() NodeCacheStats {
	cs := c.table.Stats()
	return NodeCacheStats{
		Hits:      cs.Hits,
		Misses:    cs.Misses,
		Coalesced: cs.Coalesced,
		Decodes:   c.decodes.Load(),
		Evictions: cs.Evictions,
		UsedBytes: cs.UsedBytes,
		Entries:   int64(cs.Entries),
		Pinned:    int64(cs.Pinned),
	}
}

// pinLedger tracks the pins one Loader currently holds on a (possibly
// shared) NodeCache, so whatever the pipeline leaves outstanding when it
// shuts down — jobs enqueued but never consumed after a cancellation, a
// worker that died mid-job — is released in one sweep instead of leaking
// into a cache that outlives the Loader.
type pinLedger struct {
	mu   sync.Mutex
	held map[cacheKey]int
}

// pin protects key from eviction until a matching unpin; calls nest as a
// reference count, one per outstanding planned job. Pinning a key with no
// resident entry is valid (and the common case): the feeder pins at plan
// time, before the decode lands.
func (p *pinLedger) pin(c *NodeCache, key cacheKey) {
	p.mu.Lock()
	if p.held == nil {
		p.held = map[cacheKey]int{}
	}
	p.held[key]++
	p.mu.Unlock()
	c.table.Pin(key)
}

func (p *pinLedger) unpin(c *NodeCache, key cacheKey) {
	p.mu.Lock()
	if n, ok := p.held[key]; ok {
		if n > 1 {
			p.held[key] = n - 1
		} else {
			delete(p.held, key)
		}
		p.mu.Unlock()
		c.table.Unpin(key)
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
			c.table.Unpin(key)
		}
	}
}
