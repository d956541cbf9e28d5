package storage

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
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
// is the LRU's own: whole objects are cached on Get and Put (write-through),
// and every reader of an object is handed the one cached slice, read-only as
// the Provider contract says, so a hit allocates nothing; objects larger
// than their shard bypass the cache; Prefetch warms it with coalesced
// batched reads (batch.go); and Stats gathers the counters of the whole
// chain below. List is not intercepted: the cache holds a subset of the
// origin and cannot answer authoritatively.
//
// Range reads come two ways. GetRanges and PrefetchRanges keep each
// sub-object range as an entry of its own, at its exact length: claimed,
// landed unread, singleflighted and disowned like an object, so a sparse
// reader fetches a chunk's few useful kilobytes instead of the chunk, and a
// range whose object is resident whole is served from that object. Put,
// Delete and Evict of an object drop its range entries with it. GetRange
// consults only the whole object (a hit is a capped sub-slice of it) and
// otherwise passes through uncached.
type LRU struct {
	passthrough // inner is the origin
	table       *Cache[string, []byte]

	prefetched atomic.Int64
	bypassed   atomic.Int64
	shed       atomic.Int64
	// inflight is the bytes of claimed prefetches still on the wire, each
	// object at its PlanOptions.SizeHint and each range at its length;
	// landing moves an entry into the table's Unread bytes at its real size.
	inflight atomic.Int64

	// ranges indexes the resident range entries of each object key.
	mu     sync.Mutex
	ranges map[string]map[string]struct{}
}

// entryKey is a request's cache key: the object key for a whole object,
// and for a range the object key, a NUL (which no object key holds) and the
// range.
func entryKey(r RangeReq) string {
	if r.whole() {
		return r.Key
	}
	return r.Key + "\x00" + strconv.FormatInt(r.Offset, 10) + "+" + strconv.FormatInt(r.Length, 10)
}

// objectOf returns the object key of a range entry's key.
func objectOf(key string) (string, bool) {
	i := strings.IndexByte(key, 0)
	if i < 0 {
		return "", false
	}
	return key[:i], true
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
	l := &LRU{passthrough: passthrough{origin}, ranges: map[string]map[string]struct{}{}}
	l.table = NewCache(capacity, shards, CacheFuncs[string, []byte]{
		Hash:    func(key string) uint64 { return HashString(HashSeed, key) },
		Size:    func(data []byte) int64 { return int64(len(data)) },
		OnEvict: func(key string, _ []byte) { l.unindex(key) },
	})
	return l
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
	// UsedBytes is the total resident payload size; unread prefetches can
	// take it over the capacity. PeakBytes is its high-water mark
	// (CacheStats.PeakBytes).
	UsedBytes, PeakBytes int64
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
		PeakBytes:    cs.PeakBytes,
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

// admit caches an entry, unless it is larger than its shard's whole budget:
// the cache cannot hold it, and the bypass is counted in Stats.Bypassed so
// undersized shard configurations do not masquerade as a stream of misses.
// A prefetched entry is admitted unread: it counts against Headroom until
// its first read.
func (l *LRU) admit(key string, data []byte, prefetched bool) {
	if int64(len(data)) > l.table.ShardCapacity(key) {
		l.bypassed.Add(1)
		return
	}
	if prefetched {
		l.table.AddUnread(key, data)
	} else {
		l.table.Add(key, data)
	}
	// Indexed once resident: an eviction racing the admit leaves at worst
	// an index entry for nothing, never an entry the index misses.
	if obj, ok := objectOf(key); ok {
		l.mu.Lock()
		if l.ranges[obj] == nil {
			l.ranges[obj] = map[string]struct{}{}
		}
		l.ranges[obj][key] = struct{}{}
		l.mu.Unlock()
	}
}

// unindex forgets an evicted range entry. It runs under the entry's shard
// lock, and takes only l.mu, which is never held across a table call.
func (l *LRU) unindex(key string) {
	obj, ok := objectOf(key)
	if !ok {
		return
	}
	l.mu.Lock()
	delete(l.ranges[obj], key)
	if len(l.ranges[obj]) == 0 {
		delete(l.ranges, obj)
	}
	l.mu.Unlock()
}

// drop removes an object and its range entries from the cache.
func (l *LRU) drop(key string) {
	l.table.Remove(key)
	l.mu.Lock()
	entries := l.ranges[key]
	delete(l.ranges, key)
	l.mu.Unlock()
	for k := range entries {
		l.table.Remove(k)
	}
}

// Evict drops key, and its range entries, from the cache without touching
// the origin. Callers that discover cached bytes are bad (a failed chunk
// check above the cache) evict them so the next read re-fetches through the
// verifying chain.
func (l *LRU) Evict(key string) { l.drop(key) }

// Get implements Provider. Concurrent misses on the same key are coalesced
// into a single origin fetch.
func (l *LRU) Get(ctx context.Context, key string) ([]byte, error) {
	fetch := func() ([]byte, error) {
		data, err := l.inner.Get(ctx, key)
		if err != nil {
			return nil, err
		}
		l.admit(key, data, false)
		return data, nil
	}
	data, _, _, err := l.table.GetOrLoad(ctx, key, fetch)
	if err != nil && errors.Is(err, errPrefetchShed) && ctx.Err() == nil {
		// This reader coalesced onto a batch prefetch whose round trip
		// failed before reaching the key; fall back to an on-demand fetch
		// instead of inheriting the batch's failure.
		return fetch()
	}
	return data, err
}

// GetRange implements Provider.
func (l *LRU) GetRange(ctx context.Context, key string, offset, length int64) ([]byte, error) {
	if data, ok := l.table.Get(key); ok {
		return sliceOf(key, data, offset, length)
	}
	return l.inner.GetRange(ctx, key, offset, length)
}

// sliceOf serves a range out of its whole object.
func sliceOf(key string, data []byte, offset, length int64) ([]byte, error) {
	lo, hi, ok := clampRange(int64(len(data)), offset, length)
	if !ok {
		return nil, rangeErr(key, offset, length, int64(len(data)))
	}
	return data[lo:hi:hi], nil
}

// GetRanges implements BatchProvider. Whole objects are read as Get reads
// them. A sub-object range is served from its object when that is resident
// whole, else from its own entry, else by joining the flight of a caller
// already fetching it (a prefetch, say); the ranges left over go to the
// origin as one batch and are admitted as entries of their own. On error the
// entries from the first failed request on are nil.
func (l *LRU) GetRanges(ctx context.Context, reqs []RangeReq) ([][]byte, error) {
	out := make([][]byte, len(reqs))
	errs := make([]error, len(reqs))
	var lead, join, whole []int
	var finishes []func([]byte, error)
	for i, r := range reqs {
		if r.whole() {
			whole = append(whole, i)
			continue
		}
		if data, ok := l.table.owe(r.Key, false); ok {
			out[i], errs[i] = sliceOf(r.Key, data, r.Offset, r.Length)
			continue
		}
		key := entryKey(r)
		if data, ok := l.table.Get(key); ok {
			out[i] = data
			continue
		}
		finish, ok := l.table.flight.Lead(key)
		if !ok {
			join = append(join, i)
			continue
		}
		// Re-checked as leader: the entry may have landed in between.
		if data, ok := l.table.owe(key, false); ok {
			finish(data, nil)
			out[i] = data
			continue
		}
		lead = append(lead, i)
		finishes = append(finishes, finish)
	}
	if len(lead) > 0 {
		sub := make([]RangeReq, len(lead))
		for j, i := range lead {
			sub[j] = reqs[i]
		}
		got, err := GetRanges(ctx, l.inner, sub)
		for j, i := range lead {
			if j < len(got) && got[j] != nil {
				l.admit(entryKey(reqs[i]), got[j], false)
				out[i] = got[j]
				finishes[j](got[j], nil)
				continue
			}
			if errs[i] = err; err == nil {
				errs[i] = fmt.Errorf("storage: range [%d, +%d) of %q not served: %w", reqs[i].Offset, reqs[i].Length, reqs[i].Key, ErrNotFound)
			}
			// Joined readers fetch their own rather than inherit this failure.
			finishes[j](nil, fmt.Errorf("%w (key %q): %w", errPrefetchShed, reqs[i].Key, errs[i]))
		}
	}
	// Only now wait on others: this call's own flights are done.
	for _, i := range whole {
		out[i], errs[i] = l.Get(ctx, reqs[i].Key)
	}
	for _, i := range join {
		out[i], errs[i] = l.getRange(ctx, reqs[i])
	}
	for i, err := range errs {
		if err != nil {
			clear(out[i:])
			return out, err
		}
	}
	return out, nil
}

// getRange reads one range entry through the coalesced-miss protocol.
func (l *LRU) getRange(ctx context.Context, r RangeReq) ([]byte, error) {
	key := entryKey(r)
	fetch := func() ([]byte, error) {
		got, err := GetRanges(ctx, l.inner, []RangeReq{r})
		if err != nil {
			return nil, err
		}
		l.admit(key, got[0], false)
		return got[0], nil
	}
	data, _, _, err := l.table.GetOrLoad(ctx, key, fetch)
	if err != nil && errors.Is(err, errPrefetchShed) && ctx.Err() == nil {
		return fetch()
	}
	return data, err
}

// Put implements Provider. Write-through: the object lands in the origin and
// the cache.
func (l *LRU) Put(ctx context.Context, key string, data []byte) error {
	if err := l.inner.Put(ctx, key, data); err != nil {
		return err
	}
	l.drop(key)
	cp := make([]byte, len(data))
	copy(cp, data)
	l.admit(key, cp, false)
	return nil
}

// Delete implements Provider.
func (l *LRU) Delete(ctx context.Context, key string) error {
	l.drop(key)
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
