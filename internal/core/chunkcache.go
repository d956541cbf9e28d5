package core

import (
	"context"
	"sync/atomic"

	"repro/internal/chunk"
	"repro/internal/storage"
)

// chunkCache is a dataset handle's decoded-chunk cache, §3.5's "buffer cache
// of fetched and unutilized data" for every ScanReader without a ChunkFetch
// of its own: a landed chunk is fetched, checked and decoded once per
// handle, not once per reader. It is a policy over storage.Cache, like the
// byte LRU and the dataloader's NodeCache: the key is the chunk's identity
// (ChunkIdentity), the value what chunk.Decode returned, whose uncompressed
// payloads alias the fetched object, charged at its payload bytes. Each
// handle owns its cache, so the key needs no handle scope, and a write on
// another handle is never seen through it.
//
// An entry goes stale only when this handle rewrites the chunk under the
// same identity (SetAt's copy-on-write into the head, Rechunk, a seal, a
// tensor recreated under a deleted one's name): writeChunk drops it under
// the tensor's write lock, and a load decodes and adds under the tensor's
// read lock, so no rewrite falls between the two.
type chunkCache struct {
	table   *storage.Cache[string, []chunk.Sample]
	decodes atomic.Int64
}

// chunkCacheShardBytes floors a shard of the handle cache, as NodeCache's
// floor does: decoded chunks are a few to ~16MB.
const chunkCacheShardBytes = 32 << 20

func newChunkCache(capacity int64) *chunkCache {
	return &chunkCache{table: storage.NewCache(capacity, storage.ShardsFor(capacity, chunkCacheShardBytes),
		storage.CacheFuncs[string, []chunk.Sample]{
			Hash: func(key string) uint64 { return storage.HashString(storage.HashSeed, key) },
			Size: samplesBytes,
		})}
}

func samplesBytes(samples []chunk.Sample) (n int64) {
	for _, s := range samples {
		n += int64(len(s.Data))
	}
	return n
}

// chunkCache returns the handle's decoded-chunk cache, built on the first
// read of a landed chunk, so an Open that reads nothing allocates none.
func (ds *Dataset) chunkCache() *chunkCache {
	if c := ds.chunks.Load(); c != nil {
		return c
	}
	ds.chunks.CompareAndSwap(nil, newChunkCache(storage.DecodedBytesOver(ds.store)))
	return ds.chunks.Load()
}

// forget drops key from the handle cache, if there is one. The caller holds
// the key's tensor write lock (or ds.mu exclusively).
func (ds *Dataset) forget(key string) {
	if c := ds.chunks.Load(); c != nil {
		c.table.Remove(key)
	}
}

// ChunkCacheStats is a point-in-time copy of a handle's decoded-chunk cache
// counters: the cache core's, and Decodes, the chunk loads that fetched and
// decoded (every miss that was neither coalesced nor failed).
type ChunkCacheStats struct {
	storage.CacheStats
	Decodes int64
}

// ChunkCacheStats reports the handle's decoded-chunk cache; all zero until
// the handle first reads a landed chunk.
func (ds *Dataset) ChunkCacheStats() ChunkCacheStats {
	c := ds.chunks.Load()
	if c == nil {
		return ChunkCacheStats{}
	}
	return ChunkCacheStats{CacheStats: c.table.Stats(), Decodes: c.decodes.Load()}
}

// cachedSamples is a ScanReader's default ChunkFetch: chunk id's stored
// samples from the handle cache, loaded through ReadChunkSamples' path on a
// miss, once however many readers ask at a time. The write buffer's chunk,
// a chunk still in the flush pipeline, one bound to no version and any
// chunk of a tensor the handle no longer holds (deleted, or left by a
// checkout) are read as ReadChunkSamples reads them and not cached. The
// samples are storage-owned and read-only.
func (t *Tensor) cachedSamples(ctx context.Context, id uint64) ([]chunk.Sample, error) {
	t.ds.mu.RLock()
	defer t.ds.mu.RUnlock()
	t.mu.RLock()
	defer t.mu.RUnlock()
	key, ok := t.landedKey(id)
	if !ok || t.ds.tensors[t.name] != t {
		return t.chunkSamples(ctx, id)
	}
	c := t.ds.chunkCache()
	samples, _, _, err := c.table.GetOrLoad(ctx, key, func() ([]chunk.Sample, error) {
		samples, err := t.chunkSamples(ctx, id)
		if err != nil {
			return nil, err
		}
		c.decodes.Add(1)
		if samplesBytes(samples) <= c.table.ShardCapacity(key) {
			c.table.Add(key, samples)
		}
		return samples, nil
	})
	return samples, err
}

// ChunkCached reports whether chunk id is resident, decoded, in the handle
// cache: a walk reading through the cache leaves such chunks out of its
// strips (StripPlan.Skip), as the loader does for its NodeCache.
func (t *Tensor) ChunkCached(id uint64) bool {
	c := t.ds.chunks.Load()
	if c == nil {
		return false
	}
	t.ds.mu.RLock()
	defer t.ds.mu.RUnlock()
	t.mu.RLock()
	defer t.mu.RUnlock()
	key, ok := t.landedKey(id)
	if !ok {
		return false
	}
	_, ok = c.table.Peek(key)
	return ok
}
