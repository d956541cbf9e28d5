package storage_test

import (
	"context"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/storage"
)

// newSizedCache builds a cache of string keys whose int64 values are their
// own byte size. One shard gives exact LRU order; more shards spread keys
// by the shared hash.
func newSizedCache(capacity int64, shards int, onEvict func(string, int64)) *storage.Cache[string, int64] {
	return storage.NewCache(capacity, shards, storage.CacheFuncs[string, int64]{
		Hash:      func(k string) uint64 { return storage.HashString(storage.HashSeed, k) },
		Size:      func(v int64) int64 { return v },
		FlightKey: func(k string) string { return k },
		OnEvict:   onEvict,
	})
}

// TestCacheEvictionRule drives the one eviction rule through the cases the
// three policies rely on.
func TestCacheEvictionRule(t *testing.T) {
	type step struct {
		op   string // add, get, pin, unpin, remove
		key  string
		size int64
	}
	cases := []struct {
		name      string
		capacity  int64
		steps     []step
		resident  []string
		used      int64
		evictions int64
		pinned    int
	}{
		{
			name:     "least recently used goes first",
			capacity: 100,
			steps:    []step{{"add", "a", 40}, {"add", "b", 40}, {"get", "a", 0}, {"add", "c", 40}},
			resident: []string{"a", "c"}, used: 80, evictions: 1,
		},
		{
			name:     "one add evicts as many as it needs",
			capacity: 100,
			steps:    []step{{"add", "a", 30}, {"add", "b", 30}, {"add", "c", 30}, {"add", "d", 90}},
			resident: []string{"d"}, used: 90, evictions: 3,
		},
		{
			name:     "pinned entries are skipped for younger unpinned ones",
			capacity: 100,
			steps:    []step{{"add", "a", 40}, {"pin", "a", 0}, {"add", "b", 40}, {"add", "c", 40}},
			resident: []string{"a", "c"}, used: 80, evictions: 1, pinned: 1,
		},
		{
			name:     "a pin taken before the entry exists holds",
			capacity: 100,
			steps:    []step{{"pin", "a", 0}, {"add", "a", 64}, {"add", "b", 64}, {"add", "c", 64}},
			resident: []string{"a", "c"}, used: 128, evictions: 1, pinned: 1,
		},
		{
			name:     "nested pins need as many unpins",
			capacity: 100,
			steps: []step{{"pin", "a", 0}, {"pin", "a", 0}, {"add", "a", 64}, {"unpin", "a", 0},
				{"add", "b", 64}, {"unpin", "a", 0}, {"add", "c", 64}},
			resident: []string{"c"}, used: 64, evictions: 2,
		},
		{
			name:     "the entry just added is never evicted: soft over budget when the rest is pinned",
			capacity: 100,
			steps:    []step{{"pin", "a", 0}, {"pin", "b", 0}, {"add", "a", 64}, {"add", "b", 64}, {"add", "c", 64}},
			resident: []string{"a", "b", "c"}, used: 192, evictions: 0, pinned: 2,
		},
		{
			name:     "an oversized add stays until the next one",
			capacity: 100,
			steps:    []step{{"add", "big", 500}, {"add", "a", 10}},
			resident: []string{"a"}, used: 10, evictions: 1,
		},
		{
			name:     "re-adding a key adjusts used instead of double counting",
			capacity: 100,
			steps:    []step{{"add", "a", 40}, {"add", "b", 20}, {"add", "a", 70}},
			resident: []string{"a", "b"}, used: 90, evictions: 0,
		},
		{
			name:     "re-adding a key larger can evict its neighbours",
			capacity: 100,
			steps:    []step{{"add", "a", 40}, {"add", "b", 20}, {"add", "a", 90}},
			resident: []string{"a"}, used: 90, evictions: 1,
		},
		{
			name:     "remove is not an eviction",
			capacity: 100,
			steps:    []step{{"add", "a", 40}, {"add", "b", 40}, {"remove", "a", 0}, {"remove", "zz", 0}},
			resident: []string{"b"}, used: 40, evictions: 0,
		},
		{
			name:     "negative capacity never evicts",
			capacity: -1,
			steps:    []step{{"add", "a", 1 << 40}, {"add", "b", 1 << 40}, {"add", "c", 1 << 40}},
			resident: []string{"a", "b", "c"}, used: 3 << 40, evictions: 0,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var hooked []string
			c := newSizedCache(tc.capacity, 1, func(k string, _ int64) { hooked = append(hooked, k) })
			present := map[string]bool{}
			for _, s := range tc.steps {
				present[s.key] = true
				switch s.op {
				case "add":
					c.Add(s.key, s.size)
				case "get":
					c.Get(s.key)
				case "pin":
					c.Pin(s.key)
				case "unpin":
					c.Unpin(s.key)
				case "remove":
					c.Remove(s.key)
				default:
					t.Fatalf("unknown op %q", s.op)
				}
			}
			var resident []string
			for k := range present {
				if _, ok := c.Peek(k); ok {
					resident = append(resident, k)
				}
			}
			sort.Strings(resident)
			if !slices.Equal(resident, tc.resident) {
				t.Fatalf("resident = %v, want %v", resident, tc.resident)
			}
			st := c.Stats()
			if st.UsedBytes != tc.used || st.Evictions != tc.evictions || st.Pinned != tc.pinned || st.Entries != len(tc.resident) {
				t.Fatalf("used/evictions/pinned/entries = %d/%d/%d/%d, want %d/%d/%d/%d",
					st.UsedBytes, st.Evictions, st.Pinned, st.Entries, tc.used, tc.evictions, tc.pinned, len(tc.resident))
			}
			if int64(len(hooked)) != tc.evictions {
				t.Fatalf("OnEvict told of %v, want %d evictions", hooked, tc.evictions)
			}
		})
	}
}

// TestCacheShardCapacities: the budget is split with no byte lost, whatever
// the remainder, and an unbounded cache is unbounded in every shard.
func TestCacheShardCapacities(t *testing.T) {
	cases := []struct {
		capacity int64
		shards   int
		want     []int64
	}{
		{4099, 8, []int64{513, 513, 513, 512, 512, 512, 512, 512}},
		{4096, 8, []int64{512, 512, 512, 512, 512, 512, 512, 512}},
		{5, 3, []int64{2, 2, 1}},
		{100, 0, []int64{100}},
		{-1, 4, []int64{-1, -1, -1, -1}},
	}
	for _, tc := range cases {
		c := newSizedCache(tc.capacity, tc.shards, nil)
		st := c.Stats()
		if c.NumShards() != len(tc.want) || len(st.Shards) != len(tc.want) {
			t.Fatalf("capacity %d over %d shards: NumShards = %d, want %d", tc.capacity, tc.shards, c.NumShards(), len(tc.want))
		}
		var sum int64
		for i, ss := range st.Shards {
			if ss.Capacity != tc.want[i] {
				t.Fatalf("capacity %d over %d shards: shard %d = %d, want %d", tc.capacity, tc.shards, i, ss.Capacity, tc.want[i])
			}
			sum += ss.Capacity
		}
		if tc.capacity >= 0 && sum != tc.capacity {
			t.Fatalf("shard capacities sum to %d, want the full %d", sum, tc.capacity)
		}
		if c.Capacity() != tc.capacity || st.Capacity != tc.capacity {
			t.Fatalf("Capacity = %d / %d, want %d", c.Capacity(), st.Capacity, tc.capacity)
		}
	}
}

// TestCacheGetOrLoadCoalesces: 32 concurrent misses on one key run the
// loader once; everyone else is served by it.
func TestCacheGetOrLoadCoalesces(t *testing.T) {
	const readers = 32
	c := newSizedCache(1<<20, 4, nil)
	var loads atomic.Int64
	release := make(chan struct{})
	load := func() (int64, error) {
		loads.Add(1)
		<-release
		c.Add("hot", 7)
		return 7, nil
	}
	var wg sync.WaitGroup
	var hits, coalesced atomic.Int64
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, hit, co, err := c.GetOrLoad(context.Background(), "hot", load)
			if err != nil || v != 7 {
				t.Errorf("GetOrLoad = %d, %v", v, err)
			}
			if hit {
				hits.Add(1)
			}
			if co {
				coalesced.Add(1)
			}
		}()
	}
	// Every reader has missed its lookup before the one load is let finish,
	// so each of the other 31 either joins the flight or, arriving late,
	// finds the value on its re-check as the next leader.
	for c.Stats().Misses < readers {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()
	if got := loads.Load(); got != 1 {
		t.Fatalf("loader ran %d times, want 1", got)
	}
	if hits.Load() != 0 || coalesced.Load() != readers-1 {
		t.Fatalf("hits/coalesced = %d/%d, want 0/%d", hits.Load(), coalesced.Load(), readers-1)
	}
	if st := c.Stats(); st.Coalesced != readers-1 || st.Hits != 0 || st.Misses != readers {
		t.Fatalf("stats coalesced/hits/misses = %d/%d/%d, want %d/0/%d", st.Coalesced, st.Hits, st.Misses, readers-1, readers)
	}
	if _, hit, _, _ := c.GetOrLoad(context.Background(), "hot", load); !hit {
		t.Fatal("a later GetOrLoad was not a hit")
	}
}

// TestCacheLead: batch leadership is refused for cached and in-flight keys,
// and finish serves the readers that joined.
func TestCacheLead(t *testing.T) {
	c := newSizedCache(1<<20, 1, nil)
	c.Add("cached", 1)
	if _, ok := c.Lead("cached"); ok {
		t.Fatal("Lead took a cached key")
	}
	finish, ok := c.Lead("k")
	if !ok {
		t.Fatal("Lead refused a cold key")
	}
	if _, ok := c.Lead("k"); ok {
		t.Fatal("Lead took a key already in flight")
	}
	got := make(chan int64)
	go func() {
		v, _, _, _ := c.GetOrLoad(context.Background(), "k", func() (int64, error) {
			t.Error("reader loaded a key a batch was leading")
			return 0, nil
		})
		got <- v
	}()
	for c.Stats().Misses < 1 {
		runtime.Gosched()
	}
	c.Add("k", 9)
	finish(9, nil)
	if v := <-got; v != 9 {
		t.Fatalf("reader got %d, want the batch's 9", v)
	}
}
