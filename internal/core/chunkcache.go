package core

import (
	"context"
	"sync/atomic"

	"repro/internal/chunk"
	"repro/internal/storage"
)

// ChunkCache is the decoded-chunk cache, §3.5's "buffer cache of fetched
// and unutilized data": a chunk is fetched, checked and opened once per
// cache however many readers ask, at a time or in turn, and each block of a
// compressed chunk is inflated once, by the first read that touches it.
// Every handle lineage (Dataset.ScopeID) builds one lazily, and its reads
// of landed chunks go through it: ScanReaders without a ChunkFetch, tiles,
// SetAt and Rechunk. The dataloader's Loaders read through one of their own
// (NodeCache), private or shared across a node's ranks.
//
// It is a policy over storage.Cache, which owns the sharded LRU table, the
// eviction rule and the coalesced-miss protocol. Its own are the key
// (ChunkKey, made by Tensor.ChunkKey), the value — the opened chunk
// (chunk.Chunk), whose uncompressed payloads alias the fetched object and
// whose compressed blocks inflate into a buffer of its own as reads touch
// them, charged at its full decoded payload bytes from the start — and one
// admit rule: a loaded chunk is kept when it fits its shard or its key is
// pinned. Loaders pin the chunks their planned jobs still need, so the
// budget is soft against pins; a cache nobody pins never holds more than its
// capacity.
type ChunkCache struct {
	table    *storage.Cache[ChunkKey, *chunk.Chunk]
	decodes  atomic.Int64
	inflated atomic.Int64
}

// ChunkKey is a decoded chunk's key in a ChunkCache. Two reads share an
// entry only when they read the same bytes: of the same handle lineage
// (scope, Dataset.ScopeID), stored object (obj, Tensor.ChunkIdentity, which
// names the version owning the bytes) and samples (sel: empty for a whole
// chunk, else a bitmap of the samples read).
//
// No entry goes stale: an object key is written once, and a rewrite of a
// chunk's rows (SetAt, Rechunk, a tensor recreated under a deleted one's name)
// takes a fresh key. The lineage's cache drops the chunks its head retires
// (Tensor.retire; a twin reads one again); any other cache ages them out.
type ChunkKey struct {
	scope uint64
	obj   string
	sel   string
}

// chunkShardBytes floors a shard: decoded chunks are a few to ~16MB, so a
// 32MB shard always fits several.
const chunkShardBytes = 32 << 20

// NewChunkCache builds a decoded-chunk cache of the given byte capacity.
func NewChunkCache(capacity int64) *ChunkCache {
	return &ChunkCache{table: storage.NewCache(capacity, storage.ShardsFor(capacity, chunkShardBytes),
		storage.CacheFuncs[ChunkKey, *chunk.Chunk]{
			// The scope is folded in ahead of the object key so distinct
			// handles spread over the shards independently.
			Hash: func(k ChunkKey) uint64 {
				return storage.HashString(storage.HashUint64(storage.HashSeed, k.scope), k.obj)
			},
			Size:   (*chunk.Chunk).Bytes,
			Digest: (*chunk.Chunk).Digest,
		})}
}

// Budget returns the cache's byte capacity across shards.
func (c *ChunkCache) Budget() int64 { return c.table.Capacity() }

// Load returns key's chunk. On a miss it runs load once however many
// callers ask at a time, and keeps what it returns under the admit rule. hit
// reports the lookup found key, coalesced that a miss was served by another
// caller's load; a miss that is neither ran load itself, and decoded unless
// err is set (a failed load caches nothing). What the chunk returns is
// storage-owned and read-only.
//
// A resident chunk a reader marked stale, having found a damaged block in it
// (chunk.Chunk.MarkStale), is dropped and loaded again: the heal of a block,
// whose reader evicts the object's byte-cache copy before it asks again
// (Tensor.healed).
func (c *ChunkCache) Load(ctx context.Context, key ChunkKey, load func() (*chunk.Chunk, error)) (ch *chunk.Chunk, hit, coalesced bool, err error) {
	fill := func() (*chunk.Chunk, error) {
		ch, err := load()
		if err != nil {
			return nil, err
		}
		c.decodes.Add(1)
		ch.CountInflated(&c.inflated)
		if storage.CacheCheck {
			ch.SumBlocks()
		}
		if ch.Bytes() <= c.table.ShardCapacity(key) || c.table.Pinned(key) {
			c.table.Add(key, ch)
		}
		return ch, nil
	}
	ch, hit, coalesced, err = c.table.GetOrLoad(ctx, key, fill)
	if err == nil && ch.Stale() {
		c.table.RemoveIf(key, (*chunk.Chunk).Stale)
		ch, hit, coalesced, err = c.table.GetOrLoad(ctx, key, fill)
	}
	return ch, hit, coalesced, err
}

// Cached reports whether key is resident, without counting a lookup: a walk
// reading through the cache leaves such chunks out of its strips
// (StripPlan.Skip).
func (c *ChunkCache) Cached(key ChunkKey) bool {
	_, ok := c.table.Peek(key)
	return ok
}

// Pin protects key from eviction, and admits its load whatever its size,
// until a matching Unpin; calls nest. A key may be pinned before its load.
func (c *ChunkCache) Pin(key ChunkKey) { c.table.Pin(key) }

// Unpin drops one pin reference of key.
func (c *ChunkCache) Unpin(key ChunkKey) { c.table.Unpin(key) }

// ChunkCacheStats is a point-in-time copy of a ChunkCache's counters: the
// cache core's; Decodes, the loads that fetched and opened a chunk (every
// miss that was neither coalesced nor failed); and Inflated, the decoded
// bytes of the compressed blocks reads of those chunks have inflated.
type ChunkCacheStats struct {
	storage.CacheStats
	Decodes  int64
	Inflated int64
}

// Stats reports the cache's counters.
func (c *ChunkCache) Stats() ChunkCacheStats {
	return ChunkCacheStats{CacheStats: c.table.Stats(), Decodes: c.decodes.Load(), Inflated: c.inflated.Load()}
}

// ChunkKey returns chunk id's key in a ChunkCache, read whole when s is
// nil, else in part as s plans.
func (t *Tensor) ChunkKey(id uint64, s *SparseChunk) ChunkKey {
	t.ds.mu.RLock()
	defer t.ds.mu.RUnlock()
	t.mu.RLock()
	defer t.mu.RUnlock()
	vid, ok := t.chunkVersion[id]
	if !ok {
		vid = t.ds.head
	}
	return t.ds.cacheKey(chunkKey(vid, t.name, id), s)
}

// cacheKey is Tensor.ChunkKey for the chunk stored under object key obj.
func (ds *Dataset) cacheKey(obj string, s *SparseChunk) ChunkKey {
	key := ChunkKey{scope: ds.scope, obj: obj}
	if s != nil {
		sel := s.plan.Selection()
		bits := make([]byte, sel[len(sel)-1]/8+1)
		for _, i := range sel {
			bits[i/8] |= 1 << (i % 8)
		}
		key.sel = string(bits)
	}
	return key
}

// chunkCache returns the lineage's decoded-chunk cache, sized from its chain
// and built on the first read of a landed chunk or the first twin, so an
// Open that does neither allocates none.
func (ds *Dataset) chunkCache() *ChunkCache {
	if c := ds.chunks.Load(); c != nil {
		return c
	}
	ds.chunks.CompareAndSwap(nil, NewChunkCache(storage.DecodedBytesOver(ds.store)))
	return ds.chunks.Load()
}

// ChunkCacheStats reports the decoded-chunk cache of the handle's lineage,
// which every twin shares; all zero until it is built.
func (ds *Dataset) ChunkCacheStats() ChunkCacheStats {
	if c := ds.chunks.Load(); c != nil {
		return c.Stats()
	}
	return ChunkCacheStats{}
}

// cachedChunk is a ScanReader's default ChunkFetch, and a tile's read:
// chunkLocked under the tensor's read locks, so no write falls between key
// and load.
func (t *Tensor) cachedChunk(ctx context.Context, id uint64) (*chunk.Chunk, error) {
	t.ds.mu.RLock()
	defer t.ds.mu.RUnlock()
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.chunkLocked(ctx, id)
}

// chunkLocked is chunk id from the lineage's cache, loaded through
// ReadChunk's path on a miss, under the caller's tensor locks, read or
// write (SetAt and Rechunk; cachedChunk would take ds.mu again). The write
// buffer's chunk, a chunk still in the flush pipeline and one bound to no
// version are read as ReadChunk reads them and not cached.
//
// A writer holding its tensor's write lock may wait here on a flight
// another caller leads, and cannot deadlock: every Load of this cache runs
// its load on the leader's goroutine under the tensor locks the leader
// already holds, and no load takes one. A leader on the writer's tensor is
// excluded by the writer's lock; one on a twin's holds only the twin's.
func (t *Tensor) chunkLocked(ctx context.Context, id uint64) (*chunk.Chunk, error) {
	obj, ok := t.landedKey(id)
	if !ok {
		return t.loadChunk(ctx, id)
	}
	c, _, _, err := t.ds.chunkCache().Load(ctx, t.ds.cacheKey(obj, nil), func() (*chunk.Chunk, error) {
		return t.loadChunk(ctx, id)
	})
	return c, err
}

// ChunkCached reports whether chunk id is resident, opened, in the
// lineage's cache: a walk reading through it leaves such chunks out of its
// strips (StripPlan.Skip), as the loader does for its own.
func (t *Tensor) ChunkCached(id uint64) bool {
	c := t.ds.chunks.Load()
	return c != nil && c.Cached(t.ChunkKey(id, nil))
}
