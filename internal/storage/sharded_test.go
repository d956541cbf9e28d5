package storage

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// blockingProvider wraps Memory and holds every Get until released, so tests
// can pile up concurrent misses on the same key deterministically. The first
// Get to arrive closes entered.
type blockingProvider struct {
	Provider
	release chan struct{}
	entered chan struct{}
	once    sync.Once
	gets    atomic.Int64
}

func newBlockingProvider() *blockingProvider {
	return &blockingProvider{Provider: NewMemory(), release: make(chan struct{}), entered: make(chan struct{})}
}

func (b *blockingProvider) Get(ctx context.Context, key string) ([]byte, error) {
	b.gets.Add(1)
	b.once.Do(func() { close(b.entered) })
	select {
	case <-b.release:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return b.Provider.Get(ctx, key)
}

// followers reports how many callers have joined key's in-flight call: the
// event the coalescing tests wait for before they let the leader finish.
func (f *Flight[K, V]) followers(key K) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.calls[key]; ok {
		return c.followers
	}
	return 0
}

// awaitFollowers yields until n callers have joined key's in-flight call.
func awaitFollowers[K comparable, V any](f *Flight[K, V], key K, n int) {
	for f.followers(key) < n {
		runtime.Gosched()
	}
}

func TestFlightCoalescesConcurrentCalls(t *testing.T) {
	ctx := context.Background()
	var f Flight[string, int]
	var calls atomic.Int64
	gate := make(chan struct{})

	const waiters = 32
	var wg sync.WaitGroup
	var sharedCount atomic.Int64
	results := make([]int, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, shared, err := f.Do(ctx, "k", func() (int, error) {
				calls.Add(1)
				<-gate
				return 42, nil
			})
			if err != nil {
				t.Errorf("Do: %v", err)
			}
			if shared {
				sharedCount.Add(1)
			}
			results[i] = v
		}(i)
	}
	// Every goroutine but the leader joins the flight before it is released.
	awaitFollowers(&f, "k", waiters-1)
	close(gate)
	wg.Wait()

	if got := calls.Load(); got != 1 {
		t.Fatalf("fn ran %d times, want 1", got)
	}
	if got := sharedCount.Load(); got != waiters-1 {
		t.Fatalf("shared callers = %d, want %d", got, waiters-1)
	}
	for i, v := range results {
		if v != 42 {
			t.Fatalf("caller %d got %d", i, v)
		}
	}
	if f.Inflight() != 0 {
		t.Fatalf("inflight = %d after completion", f.Inflight())
	}
}

func TestFlightDistinctKeysDoNotCoalesce(t *testing.T) {
	ctx := context.Background()
	var f Flight[string, string]
	var calls atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			key := fmt.Sprintf("k%d", i)
			v, _, err := f.Do(ctx, key, func() (string, error) {
				calls.Add(1)
				return key, nil
			})
			if err != nil || v != key {
				t.Errorf("Do(%s) = %q, %v", key, v, err)
			}
		}(i)
	}
	wg.Wait()
	if got := calls.Load(); got != 8 {
		t.Fatalf("fn ran %d times, want 8 (one per key)", got)
	}
}

func TestFlightErrorSharedByFollowers(t *testing.T) {
	ctx := context.Background()
	var f Flight[string, int]
	boom := errors.New("origin down")
	gate := make(chan struct{})

	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, errs[i] = f.Do(ctx, "k", func() (int, error) {
				<-gate
				return 0, boom
			})
		}(i)
	}
	awaitFollowers(&f, "k", len(errs)-1)
	close(gate)
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, boom) {
			t.Fatalf("caller %d err = %v, want origin failure", i, err)
		}
	}
}

func TestFlightFollowerContextCancellation(t *testing.T) {
	var f Flight[string, int]
	gate := make(chan struct{})
	started := make(chan struct{})
	leaderDone := make(chan struct{})

	go func() {
		defer close(leaderDone)
		v, _, err := f.Do(context.Background(), "k", func() (int, error) {
			close(started)
			<-gate
			return 7, nil
		})
		if v != 7 || err != nil {
			t.Errorf("leader got %d, %v", v, err)
		}
	}()
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, shared, err := f.Do(ctx, "k", func() (int, error) { return 0, nil })
	if !shared || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled follower: shared=%v err=%v", shared, err)
	}

	close(gate) // leader still completes normally
	<-leaderDone
}

// TestShardedLRUTable exercises shard counts from 1 to 64 with the same
// workload and asserts the Provider contract behaviors hold for each.
func TestShardedLRUTable(t *testing.T) {
	ctx := context.Background()
	for _, shards := range []int{1, 2, 4, 16, 64} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			origin := NewCounting(NewMemory())
			cache := NewShardedLRU(origin, 1<<20, shards)
			if cache.NumShards() != shards {
				t.Fatalf("NumShards = %d", cache.NumShards())
			}

			const keys = 100
			for i := 0; i < keys; i++ {
				if err := cache.Put(ctx, fmt.Sprintf("k%03d", i), []byte{byte(i)}); err != nil {
					t.Fatal(err)
				}
			}
			origin.Reset()
			for i := 0; i < keys; i++ {
				got, err := cache.Get(ctx, fmt.Sprintf("k%03d", i))
				if err != nil || len(got) != 1 || got[0] != byte(i) {
					t.Fatalf("Get k%03d = %v, %v", i, got, err)
				}
			}
			if gets := origin.Snapshot().Gets; gets != 0 {
				t.Fatalf("origin Gets = %d, want 0 (all resident)", gets)
			}

			stats := cache.Stats()
			if len(stats.Shards) != shards {
				t.Fatalf("per-shard stats = %d entries, want %d", len(stats.Shards), shards)
			}
			if stats.Hits != keys {
				t.Fatalf("hits = %d, want %d", stats.Hits, keys)
			}
			if stats.UsedBytes != keys {
				t.Fatalf("used = %d, want %d", stats.UsedBytes, keys)
			}
			// Aggregates equal the sum of the per-shard breakdown.
			var hits, misses, used int64
			entries := 0
			for _, ss := range stats.Shards {
				hits += ss.Hits
				misses += ss.Misses
				used += ss.UsedBytes
				entries += ss.Entries
			}
			if hits != stats.Hits || misses != stats.Misses || used != stats.UsedBytes {
				t.Fatalf("aggregate %d/%d/%d != shard sums %d/%d/%d",
					stats.Hits, stats.Misses, stats.UsedBytes, hits, misses, used)
			}
			if entries != keys {
				t.Fatalf("entries = %d, want %d", entries, keys)
			}

			// Deletes evict from the owning shard.
			if err := cache.Delete(ctx, "k000"); err != nil {
				t.Fatal(err)
			}
			if ok, _ := cache.Exists(ctx, "k000"); ok {
				t.Fatal("k000 survived delete")
			}
		})
	}
}

// TestFlightLeaderPanicDoesNotPoisonKey: a panicking leader must release
// the key (followers get an error, not a permanent hang) and leave the
// flight reusable.
func TestFlightLeaderPanicDoesNotPoisonKey(t *testing.T) {
	ctx := context.Background()
	var f Flight[string, int]
	gate := make(chan struct{})
	started := make(chan struct{})

	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		defer func() {
			if recover() == nil {
				t.Error("leader panic did not propagate")
			}
		}()
		f.Do(ctx, "k", func() (int, error) {
			close(started)
			<-gate
			panic("provider bug")
		})
	}()
	<-started

	followerErr := make(chan error, 1)
	go func() {
		_, _, err := f.Do(ctx, "k", func() (int, error) { return 0, nil })
		followerErr <- err
	}()
	awaitFollowers(&f, "k", 1)
	close(gate)
	<-leaderDone

	// A follower deadlocked on the poisoned key hangs here.
	if err := <-followerErr; !errors.Is(err, errFlightAbandoned) {
		t.Fatalf("follower err = %v, want the abandoned-leader error", err)
	}
	// The key is released: a fresh call runs fn normally.
	v, shared, err := f.Do(ctx, "k", func() (int, error) { return 9, nil })
	if v != 9 || shared || err != nil {
		t.Fatalf("post-panic Do = %d, %v, %v", v, shared, err)
	}
}

// TestNewLRUShardCountScalesToCapacity: the automatic shard count must
// never shrink per-shard capacity below full chunk size — a 64MB cache has
// to hold the paper's 8MB chunks.
func TestNewLRUShardCountScalesToCapacity(t *testing.T) {
	ctx := context.Background()
	cases := []struct {
		capacity   int64
		wantShards int
	}{
		{1 << 30, 16}, // 1GB: full sharding
		{64 << 20, 4}, // 64MB: 4 shards of 16MB
		{1 << 20, 1},  // 1MB: single shard
		{0, 1},
	}
	for _, c := range cases {
		cache := NewLRU(NewMemory(), c.capacity)
		if got := cache.NumShards(); got != c.wantShards {
			t.Errorf("NewLRU(%d).NumShards() = %d, want %d", c.capacity, got, c.wantShards)
		}
	}
	// The regression: an 8MB chunk must be cacheable in a 64MB cache.
	origin := NewCounting(NewMemory())
	cache := NewLRU(origin, 64<<20)
	if err := cache.Put(ctx, "chunk", make([]byte, 8<<20)); err != nil {
		t.Fatal(err)
	}
	if used := cache.Stats().UsedBytes; used != 8<<20 {
		t.Fatalf("8MB chunk not resident in 64MB cache: used = %d", used)
	}
	if _, err := cache.Get(ctx, "chunk"); err != nil {
		t.Fatal(err)
	}
	if gets := origin.Snapshot().Gets; gets != 0 {
		t.Fatalf("origin Gets = %d, want 0 (chunk resident)", gets)
	}
}

// TestLRUFollowerSurvivesLeaderCancellation: a follower with a live context
// must not inherit the leader's context.Canceled — it retries and fetches
// with its own context.
func TestLRUFollowerSurvivesLeaderCancellation(t *testing.T) {
	blocking := newBlockingProvider()
	if err := blocking.Provider.Put(context.Background(), "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	cache := NewLRU(blocking, 1<<20)

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leaderErr := make(chan error, 1)
	go func() {
		_, err := cache.Get(leaderCtx, "k")
		leaderErr <- err
	}()
	<-blocking.entered

	followerDone := make(chan struct{})
	var followerData []byte
	var followerFetchErr error
	go func() {
		defer close(followerDone)
		followerData, followerFetchErr = cache.Get(context.Background(), "k")
	}()
	awaitFollowers(&cache.table.flight, "k", 1)

	cancelLeader()
	if err := <-leaderErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader err = %v, want Canceled", err)
	}
	// The follower retries and becomes the new leader, whose origin Get
	// passes the released gate.
	close(blocking.release)
	<-followerDone
	if followerFetchErr != nil || string(followerData) != "v" {
		t.Fatalf("follower = %q, %v; want value despite cancelled leader", followerData, followerFetchErr)
	}
	if got := blocking.gets.Load(); got != 2 {
		t.Fatalf("origin Gets = %d, want 2 (the cancelled leader's and the follower's own)", got)
	}
	// The retry was a real fetch, not a shared one: no coalesced credit.
	if c := cache.Stats().Coalesced; c != 0 {
		t.Fatalf("coalesced = %d, want 0 (follower refetched)", c)
	}
}

// TestShardedLRUEvictionBounded asserts every shard honors its byte budget
// under a churning workload.
func TestShardedLRUEvictionBounded(t *testing.T) {
	ctx := context.Background()
	const capacity, shards = 4096, 8
	cache := NewShardedLRU(NewMemory(), capacity, shards)
	for i := 0; i < 500; i++ {
		if err := cache.Put(ctx, fmt.Sprintf("obj%d", i), make([]byte, 100)); err != nil {
			t.Fatal(err)
		}
	}
	stats := cache.Stats()
	if stats.UsedBytes > capacity {
		t.Fatalf("resident %d exceeds capacity %d", stats.UsedBytes, capacity)
	}
	per := int64(capacity / shards)
	for i, ss := range stats.Shards {
		if ss.UsedBytes > per {
			t.Fatalf("shard %d resident %d exceeds shard budget %d", i, ss.UsedBytes, per)
		}
	}
}

// TestLRUCoalescesConcurrentMisses is the tentpole behavior: N readers miss
// on the same object simultaneously and the origin sees exactly one Get.
func TestLRUCoalescesConcurrentMisses(t *testing.T) {
	ctx := context.Background()
	blocking := newBlockingProvider()
	if err := blocking.Provider.Put(ctx, "hot", []byte("chunk-bytes")); err != nil {
		t.Fatal(err)
	}
	cache := NewLRU(blocking, 1<<20)

	const readers = 32
	var wg sync.WaitGroup
	results := make([][]byte, readers)
	errs := make([]error, readers)
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = cache.Get(ctx, "hot")
		}(i)
	}
	// Wait for the leader to reach the (blocked) origin and for every other
	// reader to join its flight, then release.
	<-blocking.entered
	awaitFollowers(&cache.table.flight, "hot", readers-1)
	close(blocking.release)
	wg.Wait()

	if got := blocking.gets.Load(); got != 1 {
		t.Fatalf("origin Gets = %d, want 1 (coalesced)", got)
	}
	for i := range results {
		if errs[i] != nil || string(results[i]) != "chunk-bytes" {
			t.Fatalf("reader %d: %q, %v", i, results[i], errs[i])
		}
	}
	stats := cache.Stats()
	if stats.Coalesced != readers-1 {
		t.Fatalf("coalesced = %d, want %d (%d readers shared one fetch)", stats.Coalesced, readers-1, readers)
	}
}

// TestShardedLRUStress hammers overlapping keys from 32 goroutines and
// asserts (a) the origin saw at most one Get per key (coalescing + caching),
// (b) returned data is correct and every reader of a key shares the one
// backing array the cache holds, and (c) the stats ledger is consistent.
func TestShardedLRUStress(t *testing.T) {
	ctx := context.Background()
	origin := NewCounting(NewMemory())
	const keys = 16
	want := make(map[string]string, keys)
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("chunk/%02d", i)
		v := fmt.Sprintf("payload-%02d", i)
		want[k] = v
		if err := origin.Put(ctx, k, []byte(v)); err != nil {
			t.Fatal(err)
		}
	}
	origin.Reset()
	cache := NewShardedLRU(origin, 1<<20, 8)

	const goroutines, rounds = 32, 200
	var arrays sync.Map // key -> the first reader's *byte
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				k := fmt.Sprintf("chunk/%02d", (g+r)%keys)
				got, err := cache.Get(ctx, k)
				if err != nil {
					t.Errorf("Get(%s): %v", k, err)
					return
				}
				if string(got) != want[k] {
					t.Errorf("Get(%s) = %q, want %q", k, got, want[k])
					return
				}
				// Readers of one key share one backing array.
				if first, _ := arrays.LoadOrStore(k, &got[0]); first != &got[0] {
					t.Errorf("Get(%s) handed out a second copy of the object", k)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	originGets := origin.Snapshot().Gets
	if originGets > keys {
		t.Fatalf("origin Gets = %d for %d keys; misses not coalesced/cached", originGets, keys)
	}
	stats := cache.Stats()
	total := goroutines * rounds
	// Every lookup is a hit or a miss; hits+misses covers all Gets.
	if stats.Hits+stats.Misses != int64(total) {
		t.Fatalf("hits(%d)+misses(%d) = %d, want %d lookups",
			stats.Hits, stats.Misses, stats.Hits+stats.Misses, total)
	}
	// Misses that did not reach the origin must be accounted as coalesced.
	if stats.Misses-stats.Coalesced != originGets {
		t.Fatalf("misses(%d) - coalesced(%d) = %d, want origin Gets %d",
			stats.Misses, stats.Coalesced, stats.Misses-stats.Coalesced, originGets)
	}
	var wantUsed int64
	for _, v := range want {
		wantUsed += int64(len(v))
	}
	if stats.UsedBytes != wantUsed {
		t.Fatalf("used = %d, want %d", stats.UsedBytes, wantUsed)
	}
}
