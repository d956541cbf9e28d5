package storage

import (
	"container/list"
	"context"
	"sync"
	"sync/atomic"
)

// DefaultShards is the maximum shard count ShardsFor chooses. Sixteen
// mutex-striped shards keep lock hold times short enough that dozens of
// dataloader workers probe a cache without serializing behind one another.
const DefaultShards = 16

// ShardsFor scales a shard count to capacity: one shard per floor bytes, at
// most DefaultShards, at least one. The floor is the caller's statement of
// how large its objects get (two ~8MB raw chunks for the byte cache, a few
// decoded chunks for the node cache), so sharding a modest cache never
// leaves a shard too small for the very objects it exists to hold.
func ShardsFor(capacity, floor int64) int {
	n := capacity / floor
	if n > DefaultShards {
		n = DefaultShards
	}
	if n < 1 {
		n = 1
	}
	return int(n)
}

// HashSeed starts a key hash; fold the key's parts in with HashUint64 and
// HashString. Together they are the 64-bit FNV-1a hash every cache policy
// shards by.
const HashSeed uint64 = 14695981039346656037

const fnvPrime64 = 1099511628211

// HashUint64 folds one word into the running hash h.
func HashUint64(h, w uint64) uint64 { return (h ^ w) * fnvPrime64 }

// HashString folds the bytes of s into the running hash h.
func HashString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime64
	}
	return h
}

// CacheFuncs is what a policy tells the cache core about its keys and
// values. None of them may call back into the cache.
type CacheFuncs[K comparable, V any] struct {
	// Hash picks a key's shard.
	Hash func(K) uint64
	// Size is a value's charge against the byte capacity.
	Size func(V) int64
	// FlightKey names a key's in-flight load in the singleflight layer. It
	// is called only on a miss, so the hit path never builds the string.
	FlightKey func(K) string
	// OnEvict, when set, is told of every entry dropped for capacity
	// (Remove does not report). It runs under the shard lock, so that a
	// policy releasing an outside resource (the disk tier's file) does so
	// in the same order the table forgot the entries.
	OnEvict func(K, V)
}

// Cache is the one LRU table under every cache tier: storage.LRU (raw
// objects in RAM), storage.Disk (an index of files) and
// dataloader.NodeCache (decoded chunks) are policies over it. It is a
// byte-budgeted map split across mutex-striped shards, with pin reference
// counts that protect entries from eviction and a singleflight layer that
// collapses concurrent misses on one key into a single load.
//
// There is one eviction rule and no policy switches. After an Add, while
// the shard is over capacity, its least recently used entries are dropped —
// except pinned ones, and except the entry just added, so a shard whose
// other residents are all pinned runs over budget rather than break a pin.
// A negative capacity never evicts. Rejecting objects too large to be worth
// caching is the caller's check (ShardCapacity).
type Cache[K comparable, V any] struct {
	fn       CacheFuncs[K, V]
	capacity int64
	shards   []cacheShard[K, V]
	flight   Flight[V]

	coalesced atomic.Int64
}

type cacheShard[K comparable, V any] struct {
	capacity int64

	mu    sync.Mutex
	used  int64
	order list.List // front = most recently used; values are *cacheEntry[K, V]
	items map[K]*list.Element
	// pins maps keys to their reference count. A pin may precede its entry
	// (a loader pins at plan time, the value lands later) and outlives it.
	pins map[K]int

	hits, misses, evictions int64
}

type cacheEntry[K comparable, V any] struct {
	key  K
	val  V
	size int64
}

// NewCache builds a cache of the given byte capacity split across shards
// (at least one) — evenly, with the division remainder spread one byte at a
// time over the leading shards, so no fraction of the budget is lost.
func NewCache[K comparable, V any](capacity int64, shards int, fn CacheFuncs[K, V]) *Cache[K, V] {
	if shards < 1 {
		shards = 1
	}
	c := &Cache[K, V]{fn: fn, capacity: capacity, shards: make([]cacheShard[K, V], shards)}
	per, rem := capacity/int64(shards), capacity%int64(shards)
	if capacity < 0 {
		per, rem = -1, 0 // unbounded: every shard is
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.capacity = per
		if int64(i) < rem {
			s.capacity++
		}
		s.items = make(map[K]*list.Element)
		s.pins = make(map[K]int)
	}
	return c
}

// Capacity returns the total byte capacity (negative: unbounded).
func (c *Cache[K, V]) Capacity() int64 { return c.capacity }

// NumShards returns the shard count.
func (c *Cache[K, V]) NumShards() int { return len(c.shards) }

func (c *Cache[K, V]) shard(k K) *cacheShard[K, V] {
	return &c.shards[c.fn.Hash(k)%uint64(len(c.shards))]
}

// ShardCapacity returns the byte capacity of the shard that owns k: the
// largest value the cache can hold under k without running over budget.
func (c *Cache[K, V]) ShardCapacity(k K) int64 { return c.shard(k).capacity }

func (c *Cache[K, V]) find(k K, count bool) (v V, ok bool) {
	s := c.shard(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.items[k]
	if !ok {
		if count {
			s.misses++
		}
		return v, false
	}
	if count {
		s.hits++
	}
	s.order.MoveToFront(el)
	return el.Value.(*cacheEntry[K, V]).val, true
}

// Get looks k up, marks it most recently used, and counts a hit or a miss.
func (c *Cache[K, V]) Get(k K) (V, bool) { return c.find(k, true) }

// Peek is Get without the hit/miss counters: for probes that are not a new
// lookup, like a singleflight leader re-checking after winning leadership.
func (c *Cache[K, V]) Peek(k K) (V, bool) { return c.find(k, false) }

// Add inserts k (or replaces its value, adjusting the byte count), marks it
// most recently used, and evicts by the rule in the type comment.
func (c *Cache[K, V]) Add(k K, v V) {
	size := c.fn.Size(v)
	s := c.shard(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.items[k]; ok {
		ent := el.Value.(*cacheEntry[K, V])
		s.used += size - ent.size
		ent.val, ent.size = v, size
		s.order.MoveToFront(el)
	} else {
		s.items[k] = s.order.PushFront(&cacheEntry[K, V]{key: k, val: v, size: size})
		s.used += size
	}
	for el := s.order.Back(); s.capacity >= 0 && s.used > s.capacity && el != s.order.Front(); {
		victim := el
		el = el.Prev()
		ent := victim.Value.(*cacheEntry[K, V])
		if s.pins[ent.key] > 0 {
			continue
		}
		s.drop(victim, ent)
		s.evictions++
		if c.fn.OnEvict != nil {
			c.fn.OnEvict(ent.key, ent.val)
		}
	}
}

func (s *cacheShard[K, V]) drop(el *list.Element, ent *cacheEntry[K, V]) {
	s.order.Remove(el)
	delete(s.items, ent.key)
	s.used -= ent.size
}

// Remove drops k if present. It is the caller discarding an entry, not an
// eviction: nothing is counted and OnEvict is not told.
func (c *Cache[K, V]) Remove(k K) {
	s := c.shard(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.items[k]; ok {
		s.drop(el, el.Value.(*cacheEntry[K, V]))
	}
}

// Pin protects k from eviction until a matching Unpin; calls nest as a
// reference count. Pinning a key with no entry yet is valid.
func (c *Cache[K, V]) Pin(k K) {
	s := c.shard(k)
	s.mu.Lock()
	s.pins[k]++
	s.mu.Unlock()
}

// Unpin drops one pin reference of k.
func (c *Cache[K, V]) Unpin(k K) {
	s := c.shard(k)
	s.mu.Lock()
	if n := s.pins[k]; n > 1 {
		s.pins[k] = n - 1
	} else {
		delete(s.pins, k)
	}
	s.mu.Unlock()
}

// GetOrLoad is the whole read path: a counted lookup, and on a miss the
// coalesced-miss protocol — win leadership of k's flight or join the one in
// progress; as leader, re-check the table (another caller may have added the
// value between this caller's miss and its leadership) before running load;
// as follower, share the leader's result, retrying on a fresh flight when
// the leader failed of its own cancellation. load decides what to cache and
// calls Add itself, so a policy can reject, trim or write the value
// elsewhere first. hit reports the lookup found k; coalesced that a miss was
// served by another caller's work, i.e. a load was avoided.
func (c *Cache[K, V]) GetOrLoad(ctx context.Context, k K, load func() (V, error)) (v V, hit, coalesced bool, err error) {
	if v, ok := c.Get(k); ok {
		return v, true, false, nil
	}
	key := c.fn.FlightKey(k)
	for {
		rescued := false
		v, shared, err := c.flight.Do(ctx, key, func() (V, error) {
			if v, ok := c.Peek(k); ok {
				rescued = true
				return v, nil
			}
			return load()
		})
		if shared && SharedCancellation(ctx, err) {
			continue
		}
		if coalesced = err == nil && (shared || rescued); coalesced {
			c.coalesced.Add(1)
		}
		return v, false, coalesced, err
	}
}

// Lead takes non-blocking leadership of k's flight for a caller that loads
// many keys in one batch: ok is false when k is already cached or already
// being loaded. On success the caller MUST invoke finish exactly once
// (after any Add), which wakes every GetOrLoad that joined in the meantime.
func (c *Cache[K, V]) Lead(k K) (finish func(V, error), ok bool) {
	if _, cached := c.Peek(k); cached {
		return nil, false
	}
	finish, ok = c.flight.Lead(c.fn.FlightKey(k))
	if !ok {
		return nil, false
	}
	// Re-check as leader, as GetOrLoad does: a flight for k may have landed
	// and left between the Peek above and taking leadership, and loading k
	// again would be a duplicate fetch of a cached key.
	if v, cached := c.Peek(k); cached {
		finish(v, nil)
		return nil, false
	}
	return finish, true
}

// ShardStats reports one shard's counters.
type ShardStats struct {
	// Hits and Misses count lookups resolved from / past this shard.
	Hits, Misses int64
	// Evictions counts entries dropped to stay under Capacity.
	Evictions int64
	// UsedBytes is the shard's resident payload size; Capacity its budget.
	UsedBytes, Capacity int64
	// Entries is the number of cached objects in the shard; Pinned the
	// number of keys currently protected from eviction.
	Entries, Pinned int
}

// CacheStats is a point-in-time copy of a Cache's counters: the embedded
// ShardStats holds the totals over Shards.
type CacheStats struct {
	ShardStats
	// Coalesced counts GetOrLoad misses served by another caller's load.
	Coalesced int64
	// Shards is the per-shard breakdown, indexed by shard number.
	Shards []ShardStats
}

// Stats reports the cache's counters.
func (c *Cache[K, V]) Stats() CacheStats {
	st := CacheStats{Coalesced: c.coalesced.Load(), Shards: make([]ShardStats, len(c.shards))}
	st.Capacity = c.capacity
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		ss := ShardStats{
			Hits: s.hits, Misses: s.misses, Evictions: s.evictions,
			UsedBytes: s.used, Capacity: s.capacity,
			Entries: len(s.items), Pinned: len(s.pins),
		}
		s.mu.Unlock()
		st.Shards[i] = ss
		st.Hits += ss.Hits
		st.Misses += ss.Misses
		st.Evictions += ss.Evictions
		st.UsedBytes += ss.UsedBytes
		st.Entries += ss.Entries
		st.Pinned += ss.Pinned
	}
	return st
}
