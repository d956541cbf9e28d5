package storage

import (
	"context"
	"errors"
	"sync/atomic"
)

// minShardBytes floors NewLRU's automatic per-shard capacity at two of the
// paper's ~8MB target chunks (§3.4), so sharding a modest cache never
// silently un-caches the very objects the chain exists to hold.
const minShardBytes = 16 << 20

// LRU chains a fast cache in front of a slower origin provider (§3.6: "LRU
// cache of remote S3 storage with local in-memory data"). It is the
// raw-object policy over the shared Cache core, which supplies the sharded
// table, the eviction rule and the coalesced-miss protocol (any number of
// workers missing on the same object trigger exactly one origin Get). What
// is the LRU's own: whole objects are cached on Get and Put (write-through)
// and copied out to every reader; range reads consult the cache and fall
// back to a range request against the origin without promoting the full
// object, so streaming sub-chunk access never inflates the cache with 8MB
// chunks the training loop only needed a slice of; objects larger than
// their shard bypass the cache; Prefetch warms it with coalesced batched
// reads (batch.go); and Stats gathers the counters of the whole chain below.
// List is not intercepted: the cache holds a subset of the origin and cannot
// answer authoritatively.
type LRU struct {
	passthrough // inner is the origin
	table       *Cache[string, []byte]

	prefetched atomic.Int64
	bypassed   atomic.Int64
	shed       atomic.Int64
}

// NewLRU wraps origin with an in-memory cache of the given byte capacity.
// The shard count scales with capacity (one shard per 16MB, at most
// DefaultShards), so per-shard capacity always fits full-size chunks.
func NewLRU(origin Provider, capacity int64) *LRU {
	return NewShardedLRU(origin, capacity, ShardsFor(capacity, minShardBytes))
}

// NewShardedLRU wraps origin with an in-memory cache of the given byte
// capacity split across the given number of mutex-striped shards (the
// division remainder goes to the leading shards, so none of the budget is
// lost). A single shard gives globally exact LRU ordering (useful for
// deterministic tests); more shards trade eviction precision for lookup
// concurrency. Note that an object larger than one shard's budget bypasses
// the cache entirely — the bypass is counted in Stats.Bypassed, and callers
// choosing an explicit shard count are expected to size shards for their
// objects, or use NewLRU which does so automatically.
func NewShardedLRU(origin Provider, capacity int64, shards int) *LRU {
	return &LRU{passthrough: passthrough{origin}, table: NewCache(capacity, shards, CacheFuncs[string, []byte]{
		Hash:      func(key string) uint64 { return HashString(HashSeed, key) },
		Size:      func(data []byte) int64 { return int64(len(data)) },
		FlightKey: func(key string) string { return key },
	})}
}

// Origin returns the wrapped provider.
func (l *LRU) Origin() Provider { return l.inner }

// NumShards returns the shard count.
func (l *LRU) NumShards() int { return l.table.NumShards() }

// Capacity returns the cache's total byte capacity across shards.
func (l *LRU) Capacity() int64 { return l.table.Capacity() }

// Stats aggregates cache counters: totals across shards plus the per-shard
// breakdown, the number of origin fetches avoided by read coalescing, and —
// when a Retry or Faulty layer sits below this cache in the provider chain —
// the resilience counters (origin re-attempts, injected faults).
type Stats struct {
	// Hits and Misses are summed over all shards.
	Hits, Misses int64
	// Coalesced counts Gets that piggybacked on another caller's in-flight
	// origin fetch instead of issuing their own.
	Coalesced int64
	// Prefetched counts objects admitted by coalesced batch prefetches
	// (Prefetch) rather than on-demand misses.
	Prefetched int64
	// PrefetchShed counts prefetch-claimed keys whose coalesced round trip
	// failed before reaching them: their flights completed with a shed
	// marker and any waiting readers fell back to on-demand fetches. A
	// nonzero value means prefetching is degraded (origin faults mid-batch),
	// not that data was lost.
	PrefetchShed int64
	// Bypassed counts objects that could not be cached because they were
	// larger than one shard's byte budget — the signal that the shard
	// count is too high (or the capacity too low) for the object sizes
	// flowing through the chain.
	Bypassed int64
	// UsedBytes is the total resident payload size.
	UsedBytes int64
	// Origin is the per-op-class origin request ledger gathered from the
	// first Counting layer below this cache in the provider chain (zero when
	// none is stacked), so callers can assert request-count contracts like
	// "N chunks, ≪N origin requests" straight off the cache stats.
	Origin CountingStats
	// Retries counts origin re-attempts issued by a Retry layer below this
	// cache (0 when none is stacked).
	Retries int64
	// Faults counts faults injected by a Faulty layer below this cache
	// (0 when none is stacked).
	Faults int64
	// CorruptionsDetected, CorruptionsRepaired and Quarantined are gathered
	// from a Verify layer below this cache (all 0 when none is stacked):
	// digest mismatches observed, mismatches resolved by a self-healing
	// re-fetch, and keys quarantined after repeated mismatches.
	CorruptionsDetected, CorruptionsRepaired, Quarantined int64
	// Disk aggregates the local-disk tier's counters when a Disk layer
	// sits below this cache in the provider chain (§3.6 RAM → disk →
	// origin); the zero value when none is stacked.
	Disk DiskStats
	// Shards is the per-shard breakdown, indexed by shard number.
	Shards []ShardStats
}

// Stats reports cache counters across all shards, plus retry/fault counters
// gathered by walking the origin chain through Unwrap.
func (l *LRU) Stats() Stats {
	cs := l.table.Stats()
	s := Stats{
		Hits:         cs.Hits,
		Misses:       cs.Misses,
		Coalesced:    cs.Coalesced,
		Prefetched:   l.prefetched.Load(),
		Bypassed:     l.bypassed.Load(),
		PrefetchShed: l.shed.Load(),
		UsedBytes:    cs.UsedBytes,
		Shards:       cs.Shards,
	}
	sawCounting := false
	walkChain(l.inner, func(p Provider) bool {
		switch v := p.(type) {
		case *Retry:
			s.Retries += v.Stats().Retries
		case *Faulty:
			s.Faults += v.Stats().Total()
		case *Verify:
			vs := v.Stats()
			s.CorruptionsDetected += vs.Detected
			s.CorruptionsRepaired += vs.Repaired
			s.Quarantined += vs.Quarantined
		case *Disk:
			ds := v.Stats()
			s.Disk.Hits += ds.Hits
			s.Disk.WarmHits += ds.WarmHits
			s.Disk.Misses += ds.Misses
			s.Disk.Evictions += ds.Evictions
			s.Disk.Bypassed += ds.Bypassed
			s.Disk.CorruptionsDetected += ds.CorruptionsDetected
			s.Disk.UsedBytes += ds.UsedBytes
			s.Disk.Entries += ds.Entries
		case *Counting:
			if !sawCounting {
				s.Origin = v.Snapshot()
				sawCounting = true
			}
		}
		return true
	})
	return s
}

// admit caches an object, unless it is larger than its shard's whole budget:
// the cache cannot hold it, and the bypass is counted in Stats.Bypassed so
// undersized shard configurations do not masquerade as a stream of misses.
func (l *LRU) admit(key string, data []byte) {
	if int64(len(data)) > l.table.ShardCapacity(key) {
		l.bypassed.Add(1)
		return
	}
	l.table.Add(key, data)
}

// Evict drops key from the cache without touching the origin. Callers that
// discover a cached object is bad (a failed chunk-footer check above the
// cache) evict it so the next Get re-fetches through the verifying chain.
func (l *LRU) Evict(key string) { l.table.Remove(key) }

// Get implements Provider. Concurrent misses on the same key are coalesced
// into a single origin fetch.
func (l *LRU) Get(ctx context.Context, key string) ([]byte, error) {
	fetch := func() ([]byte, error) {
		data, err := l.inner.Get(ctx, key)
		if err != nil {
			return nil, err
		}
		l.admit(key, data)
		return data, nil
	}
	data, _, _, err := l.table.GetOrLoad(ctx, key, fetch)
	if err != nil && errors.Is(err, errPrefetchShed) && ctx.Err() == nil {
		// This reader coalesced onto a batch prefetch whose round trip
		// failed before reaching the key; fall back to an on-demand fetch
		// instead of inheriting the batch's failure.
		data, err = fetch()
	}
	if err != nil {
		return nil, err
	}
	out := make([]byte, len(data))
	copy(out, data)
	return out, nil
}

// GetRange implements Provider.
func (l *LRU) GetRange(ctx context.Context, key string, offset, length int64) ([]byte, error) {
	if data, ok := l.table.Get(key); ok {
		lo, hi, ok := clampRange(int64(len(data)), offset, length)
		if !ok {
			return nil, rangeErr(key, offset, length, int64(len(data)))
		}
		out := make([]byte, hi-lo)
		copy(out, data[lo:hi])
		return out, nil
	}
	return l.inner.GetRange(ctx, key, offset, length)
}

// Put implements Provider. Write-through: the object lands in the origin and
// the cache.
func (l *LRU) Put(ctx context.Context, key string, data []byte) error {
	if err := l.inner.Put(ctx, key, data); err != nil {
		return err
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	l.admit(key, cp)
	return nil
}

// Delete implements Provider.
func (l *LRU) Delete(ctx context.Context, key string) error {
	l.table.Remove(key)
	return l.inner.Delete(ctx, key)
}

// Exists implements Provider.
func (l *LRU) Exists(ctx context.Context, key string) (bool, error) {
	if _, ok := l.table.Get(key); ok {
		return true, nil
	}
	return l.inner.Exists(ctx, key)
}

// Size implements Provider.
func (l *LRU) Size(ctx context.Context, key string) (int64, error) {
	if data, ok := l.table.Get(key); ok {
		return int64(len(data)), nil
	}
	return l.inner.Size(ctx, key)
}
