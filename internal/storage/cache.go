package storage

import (
	"container/list"
	"context"
	"fmt"
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
	// OnEvict, when set, is told of every entry dropped for capacity
	// (Remove does not report). It runs under the shard lock, so that a
	// policy releasing an outside resource (the disk tier's file) does so
	// in the same order the table forgot the entries.
	OnEvict func(K, V)
	// Digest, when set, is what the mutation detector of a cachecheck
	// build (CacheCheck) checks of a value, in place of the bytes it
	// reaches through slices, arrays and struct fields: a value that holds
	// its bytes behind a pointer, or fills them in after admit, says here
	// what no reader may change. Other builds never call it.
	Digest func(V) uint32
}

// Cache is the one LRU table under every cache tier: storage.LRU (raw
// objects in RAM), storage.Disk (an index of files) and core.ChunkCache
// (decoded chunks, per dataset handle and per NodeCache) are policies over
// it. It is a byte-budgeted map split across mutex-striped shards, with pin
// reference counts that protect entries from eviction and a singleflight
// layer that collapses concurrent misses on one key into a single load.
//
// There is one eviction rule and no policy switches. After an Add, while
// the shard is over capacity, its least recently used entries are dropped —
// except pinned or unread ones, and except the entry just added, so a shard
// whose other residents are all pinned or unread runs over budget. A
// negative capacity never evicts. Rejecting objects too large to be worth
// caching is the caller's check (ShardCapacity).
//
// An unread entry (AddUnread, or re-armed by Lead) is owed to a reader: its
// bytes count in Unread until the first Get of its key, until GetOrLoad
// hands it to a caller that joined the load, or until it is disowned.
//
// Values are handed out, not copied: every reader of a key gets the value
// that was added, and none may write into it. Built with the cachecheck tag,
// the cache records each entry's CRC32C (CacheFuncs.Digest) at admit and
// re-checks it on every hit and when the entry leaves, panicking with the key
// on a mismatch.
type Cache[K comparable, V any] struct {
	fn       CacheFuncs[K, V]
	capacity int64
	shards   []cacheShard[K, V]
	flight   Flight[K, V]

	coalesced atomic.Int64
	unread    atomic.Int64 // bytes of entries owed to a reader
	used      atomic.Int64 // resident bytes over all shards
	peak      atomic.Int64 // high-water mark of used
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
	key    K
	val    V
	size   int64
	unread bool
	crc    uint32 // of val at admit, kept only under the cachecheck tag
}

// digest is v's CRC32C under the mutation detector: CacheFuncs.Digest's,
// else that of the bytes reachable from v.
func (c *Cache[K, V]) digest(v *V) uint32 {
	if c.fn.Digest != nil {
		return c.fn.Digest(*v)
	}
	return valueCRC(v)
}

// check panics, under the cachecheck tag, when ent's value is not the bytes
// it was admitted with: a reader wrote into a value the cache hands out.
func (c *Cache[K, V]) check(ent *cacheEntry[K, V], event string) {
	if CacheCheck && c.digest(&ent.val) != ent.crc {
		panic(fmt.Sprintf("storage: cached value of key %v changed after admit (seen on %s)", ent.key, event))
	}
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
	ent := el.Value.(*cacheEntry[K, V])
	c.check(ent, "hit")
	if count {
		s.hits++
		c.markRead(ent)
	}
	s.order.MoveToFront(el)
	return ent.val, true
}

// markRead clears ent's unread mark. The caller holds ent's shard lock.
func (c *Cache[K, V]) markRead(ent *cacheEntry[K, V]) {
	if ent.unread {
		ent.unread = false
		c.unread.Add(-ent.size)
	}
}

// owe marks k, if resident, owed to a reader (and most recently used) or not,
// without counting a hit, and returns its value.
func (c *Cache[K, V]) owe(k K, unread bool) (v V, ok bool) {
	s := c.shard(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.items[k]
	if !ok {
		return v, false
	}
	ent := el.Value.(*cacheEntry[K, V])
	c.check(ent, "hit")
	c.markRead(ent)
	if unread {
		ent.unread = true
		c.unread.Add(ent.size)
		s.order.MoveToFront(el)
	}
	return ent.val, true
}

// Get looks k up, marks it most recently used, and counts a hit or a miss.
func (c *Cache[K, V]) Get(k K) (V, bool) { return c.find(k, true) }

// Peek is Get without the hit/miss counters: for probes that are not a new
// lookup, like a singleflight leader re-checking after winning leadership.
func (c *Cache[K, V]) Peek(k K) (V, bool) { return c.find(k, false) }

// Add inserts k (or replaces its value, adjusting the byte count), marks it
// most recently used, and evicts by the rule in the type comment.
func (c *Cache[K, V]) Add(k K, v V) { c.add(k, v, false) }

// AddUnread is Add for a value loaded ahead of any reader: its bytes count in
// Unread until it is first read (see the type comment).
func (c *Cache[K, V]) AddUnread(k K, v V) { c.add(k, v, true) }

func (c *Cache[K, V]) add(k K, v V, unread bool) {
	size := c.fn.Size(v)
	s := c.shard(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.items[k]
	if ok {
		ent := el.Value.(*cacheEntry[K, V])
		c.check(ent, "replace")
		c.markRead(ent)
		s.used -= ent.size
		c.used.Add(-ent.size)
		ent.val, ent.size = v, size
		s.order.MoveToFront(el)
	} else {
		el = s.order.PushFront(&cacheEntry[K, V]{key: k, val: v, size: size})
		s.items[k] = el
	}
	s.used += size
	c.used.Add(size)
	ent := el.Value.(*cacheEntry[K, V])
	if CacheCheck {
		ent.crc = c.digest(&ent.val)
	}
	if unread {
		ent.unread = true
		c.unread.Add(size)
	}
	for el := s.order.Back(); s.capacity >= 0 && s.used > s.capacity && el != s.order.Front(); {
		victim := el
		el = el.Prev()
		ent := victim.Value.(*cacheEntry[K, V])
		if s.pins[ent.key] > 0 || ent.unread {
			continue
		}
		c.drop(s, victim, ent)
		s.evictions++
		if c.fn.OnEvict != nil {
			c.fn.OnEvict(ent.key, ent.val)
		}
	}
	// Raised once the eviction pass is done, so the mark is of bytes
	// actually kept: a transient over-budget admit does not count.
	for used := c.used.Load(); ; {
		peak := c.peak.Load()
		if used <= peak || c.peak.CompareAndSwap(peak, used) {
			break
		}
	}
}

// drop unlinks ent from its shard s, whose lock the caller holds.
func (c *Cache[K, V]) drop(s *cacheShard[K, V], el *list.Element, ent *cacheEntry[K, V]) {
	c.check(ent, "evict")
	c.markRead(ent)
	s.order.Remove(el)
	delete(s.items, ent.key)
	s.used -= ent.size
	c.used.Add(-ent.size)
}

// Remove drops k if present. It is the caller discarding an entry, not an
// eviction: nothing is counted and OnEvict is not told.
func (c *Cache[K, V]) Remove(k K) {
	s := c.shard(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.items[k]; ok {
		c.drop(s, el, el.Value.(*cacheEntry[K, V]))
	}
}

// RemoveIf drops k if present and stale reports its value stale, under the
// shard lock: a policy discarding a value it found bad, without dropping a
// good one another caller put in its place. Like Remove it is not an
// eviction.
func (c *Cache[K, V]) RemoveIf(k K, stale func(V) bool) {
	s := c.shard(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.items[k]; ok {
		if ent := el.Value.(*cacheEntry[K, V]); stale(ent.val) {
			c.drop(s, el, ent)
		}
	}
}

// Unread returns the bytes of entries owed to a reader (see the type comment).
func (c *Cache[K, V]) Unread() int64 { return c.unread.Load() }

// Pin protects k from eviction until a matching Unpin; calls nest as a
// reference count. Pinning a key with no entry yet is valid.
func (c *Cache[K, V]) Pin(k K) {
	s := c.shard(k)
	s.mu.Lock()
	s.pins[k]++
	s.mu.Unlock()
}

// Pinned reports whether k holds a pin.
func (c *Cache[K, V]) Pinned(k K) bool {
	s := c.shard(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pins[k] > 0
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
	for {
		rescued := false
		v, shared, err := c.flight.Do(ctx, k, func() (V, error) {
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
			// Served by another caller's load, this caller is the value's
			// first reader when that load was a read-ahead (AddUnread).
			c.owe(k, false)
		}
		return v, false, coalesced, err
	}
}

// Lead takes non-blocking leadership of k's flight for a caller that loads
// many keys ahead of their readers: ok is false when k is being loaded, or
// cached, which re-arms it as unread. On success the caller MUST invoke
// finish exactly once (after any Add), which wakes every joined GetOrLoad.
func (c *Cache[K, V]) Lead(k K) (finish func(V, error), ok bool) {
	if _, cached := c.owe(k, true); cached {
		return nil, false
	}
	finish, ok = c.flight.Lead(k)
	if !ok {
		return nil, false
	}
	// Re-check as leader, as GetOrLoad does: a flight for k may have landed
	// and left between the check above and taking leadership, and loading k
	// again would be a duplicate fetch of a cached key.
	if v, cached := c.owe(k, true); cached {
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
	// PeakBytes is the high-water mark of UsedBytes, taken after each
	// admit's eviction pass: over Capacity only when pinned or unread
	// entries held a shard over its budget.
	PeakBytes int64
	// Coalesced counts GetOrLoad misses served by another caller's load.
	Coalesced int64
	// Shards is the per-shard breakdown, indexed by shard number.
	Shards []ShardStats
}

// Stats reports the cache's counters.
func (c *Cache[K, V]) Stats() CacheStats {
	st := CacheStats{PeakBytes: c.peak.Load(), Coalesced: c.coalesced.Load(), Shards: make([]ShardStats, len(c.shards))}
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
