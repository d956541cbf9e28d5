package dataloader

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/simnet"
	"repro/internal/storage"
	"repro/internal/tensor"
	"repro/internal/view"
)

// epochRows streams one epoch and returns the first element of "x" per row,
// in delivery order.
func epochRows(t *testing.T, l *Loader) []float64 {
	t.Helper()
	var rows []float64
	for _, b := range drain(t, l) {
		for _, s := range b.Samples {
			v, _ := s["x"].At(0)
			rows = append(rows, v)
		}
	}
	return rows
}

// TestBatchesIdenticalAcrossWorkerCounts is the determinism contract of the
// concurrent read path: worker parallelism, strip look-ahead, and fetch
// coalescing must not change what the consumer sees. Run under -race this
// also shakes out data races between workers, the feeder, and the cache.
func TestBatchesIdenticalAcrossWorkerCounts(t *testing.T) {
	ds := loaderDataset(t, storage.NewMemory(), 300)
	for _, shuffle := range []bool{false, true} {
		// epochHash covers every delivered field's bytes in delivery order.
		run := func(workers int) uint64 {
			h, n, l := epochHash(t, ds, Options{
				BatchSize: 16, Workers: workers,
				Shuffle: shuffle, Seed: 11, ShuffleBuffer: 64,
			})
			if err := l.Err(); err != nil {
				t.Fatal(err)
			}
			if n != 300 {
				t.Fatalf("shuffle=%v workers=%d: delivered %d rows", shuffle, workers, n)
			}
			return h
		}
		one := run(1)
		for _, workers := range []int{4, 16} {
			if run(workers) != one {
				t.Fatalf("shuffle=%v: batch stream differs between 1 and %d workers", shuffle, workers)
			}
		}
	}
}

// TestMediaBatchesIdenticalAcrossWorkerCounts: on a JPEG primary, whose jobs
// are cut at batch windows, the batch stream is the same at any worker count
// and is the stream whole-chunk jobs delivered: the constant was recorded
// before jobs followed batch windows.
func TestMediaBatchesIdenticalAcrossWorkerCounts(t *testing.T) {
	ds := mediaDataset(t, storage.NewMemory(), 3200)
	const want = uint64(0xa04443a39703845d)
	for _, workers := range []int{1, 4, 16} {
		h, n, l := epochHash(t, ds, Options{BatchSize: 32, ShuffleBuffer: 2048, Shuffle: true, Seed: 11, Workers: workers})
		if err := l.Err(); err != nil {
			t.Fatal(err)
		}
		if h != want || n != 3200 {
			t.Fatalf("workers=%d: delivered %d rows hashing to %#x, want 3200 hashing to %#x", workers, n, h, want)
		}
	}
}

// TestReadaheadDoesNotDuplicateFetches: with eight workers racing for every
// chunk, singleflight must keep origin traffic at one Get per chunk.
func TestReadaheadDoesNotDuplicateFetches(t *testing.T) {
	inner := storage.NewMemory()
	counting := storage.NewCounting(inner)
	ds := loaderDataset(t, counting, 256)

	counting.Reset()
	l := ForDataset(ds, Options{BatchSize: 16, Workers: 8})
	drain(t, l)
	chunks := int64(ds.Tensor("x").NumChunks() + ds.Tensor("label").NumChunks())
	if gets := counting.Snapshot().Gets; gets > chunks {
		t.Fatalf("epoch fetched %d objects for %d chunks; workers duplicated fetches", gets, chunks)
	}
}

// TestEpochCoalescesStripsAndMovesEachChunkOnce: over a prefetch-capable
// chain (a byte LRU above a batch-capable origin) the feeder's strips reach
// the origin as batched ranged requests. A cold epoch therefore
// costs strictly fewer origin requests than it has chunks, while every chunk
// object still moves exactly once — whole, as a range, or inside a batch —
// and is decoded exactly once, at any worker count.
func TestEpochCoalescesStripsAndMovesEachChunkOnce(t *testing.T) {
	ctx := context.Background()
	profile := simnet.S3SameRegion()
	profile.TimeScale = 1000
	counting := storage.NewCounting(storage.NewSimObjectStore(profile))
	const rows = 256
	loaderDataset(t, counting, rows)
	for _, workers := range []int{1, 4, 16} {
		ds, err := core.Open(ctx, storage.NewLRU(counting, 1<<30))
		if err != nil {
			t.Fatal(err)
		}
		chunks := int64(ds.Tensor("x").NumChunks() + ds.Tensor("label").NumChunks())
		counting.Reset()
		l := ForDataset(ds, Options{BatchSize: 16, Workers: workers, Shuffle: true, Seed: 3})
		got := epochRows(t, l)
		sort.Float64s(got)
		if len(got) != rows {
			t.Fatalf("workers=%d: delivered %d/%d rows", workers, len(got), rows)
		}
		for i, v := range got {
			if v != float64(i) {
				t.Fatalf("workers=%d: row %d missing or duplicated (got %v)", workers, i, v)
			}
		}
		if decodes := l.CacheDecodes(); decodes != chunks {
			t.Fatalf("workers=%d: decoded %d chunks, want exactly %d", workers, decodes, chunks)
		}
		snap := counting.Snapshot()
		if moved := snap.Gets + snap.RangeGets + snap.BatchRanges; moved != chunks {
			t.Fatalf("workers=%d: moved %d chunk objects from origin for %d chunks (fetch-once)", workers, moved, chunks)
		}
		if reqs := snap.Requests(); reqs >= chunks {
			t.Fatalf("workers=%d: %d origin requests for %d chunks; strips must coalesce into batched requests", workers, reqs, chunks)
		}
	}
}

// TestEpochRequestCountsAreDeterministic: the feeder claims every chunk in
// the byte cache's singleflight layer before a job that reads it exists, so
// over a prefetch-capable chain no worker ever issues its own single-object
// read: every chunk object arrives as one range of a strip's batched request,
// and the number of batched requests depends on the visit order alone — not
// on the worker count or on who wins a race.
func TestEpochRequestCountsAreDeterministic(t *testing.T) {
	ctx := context.Background()
	counting := storage.NewCounting(storage.NewMemory())
	loaderDataset(t, counting, 2000)
	for _, shuffle := range []bool{false, true} {
		var batchGets int64
		for i, workers := range []int{1, 2, 8} {
			ds, err := core.Open(ctx, storage.NewLRU(counting, 1<<30))
			if err != nil {
				t.Fatal(err)
			}
			chunks := int64(ds.Tensor("x").NumChunks() + ds.Tensor("label").NumChunks())
			counting.Reset()
			l := ForDataset(ds, Options{BatchSize: 32, Workers: workers, Shuffle: shuffle, Seed: 5})
			if rows := len(epochRows(t, l)); rows != 2000 {
				t.Fatalf("shuffle=%v workers=%d: delivered %d/2000 rows", shuffle, workers, rows)
			}
			snap := counting.Snapshot()
			if snap.Gets != 0 || snap.RangeGets != 0 {
				t.Fatalf("shuffle=%v workers=%d: %d Gets and %d RangeGets raced the strips, want none", shuffle, workers, snap.Gets, snap.RangeGets)
			}
			if snap.BatchRanges != chunks {
				t.Fatalf("shuffle=%v workers=%d: strips carried %d chunk objects, want %d", shuffle, workers, snap.BatchRanges, chunks)
			}
			if decodes := l.CacheDecodes(); decodes != chunks {
				t.Fatalf("shuffle=%v workers=%d: decoded %d chunks, want exactly %d", shuffle, workers, decodes, chunks)
			}
			if i == 0 {
				batchGets = snap.BatchGets
			} else if snap.BatchGets != batchGets {
				t.Fatalf("shuffle=%v: %d batched requests at %d workers, %d at 1", shuffle, snap.BatchGets, workers, batchGets)
			}
		}
	}
}

// chunkMoves is an origin that counts, per chunk object, how many times it
// was read — whole, by range, or as one range of a batch.
type chunkMoves struct {
	storage.Provider
	mu    sync.Mutex
	moves map[string]int
}

func (c *chunkMoves) moved(keys ...string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, k := range keys {
		if strings.Contains(k, "/chunks/") {
			c.moves[k]++
		}
	}
}

func (c *chunkMoves) Get(ctx context.Context, key string) ([]byte, error) {
	c.moved(key)
	return c.Provider.Get(ctx, key)
}

func (c *chunkMoves) GetRange(ctx context.Context, key string, offset, length int64) ([]byte, error) {
	c.moved(key)
	return c.Provider.GetRange(ctx, key, offset, length)
}

func (c *chunkMoves) GetRanges(ctx context.Context, reqs []storage.RangeReq) ([][]byte, error) {
	for _, r := range reqs {
		c.moved(r.Key)
	}
	return storage.GetRanges(ctx, c.Provider, reqs)
}

// TestConcurrentReadersShareOneByteCache: 16 readers at once, each opening
// its own dataset handle through one shared byte cache and streaming a full
// epoch; every reader sees every row, in order, and between them every chunk
// object leaves the origin exactly once — whichever of the 16 loaders'
// workers and prefetch strips got to it first, all others hit the cache or
// join its flight. Run under -race this covers the cache's hit,
// coalesced-miss and batch-prefetch paths crossing between independent
// loaders.
func TestConcurrentReadersShareOneByteCache(t *testing.T) {
	ctx := context.Background()
	origin := &chunkMoves{Provider: storage.NewMemory(), moves: map[string]int{}}
	const rows, readers = 256, 16
	seed := loaderDataset(t, origin, rows)
	chunks := seed.Tensor("x").NumChunks() + seed.Tensor("label").NumChunks()
	clear(origin.moves) // count the readers' moves, not the writer's
	cache := storage.NewLRU(origin, 1<<30)

	got := make([][]float64, readers)
	errs := make([]error, readers)
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			ds, err := core.Open(ctx, cache)
			if err != nil {
				errs[r] = err
				return
			}
			l := ForDataset(ds, Options{BatchSize: 32, Workers: 4})
			for b := range l.Batches(ctx) {
				for _, s := range b.Samples {
					v, _ := s["x"].At(0)
					got[r] = append(got[r], v)
				}
			}
			errs[r] = l.Err()
		}(r)
	}
	wg.Wait()
	for r := 0; r < readers; r++ {
		if errs[r] != nil {
			t.Fatalf("reader %d: %v", r, errs[r])
		}
		if len(got[r]) != rows {
			t.Fatalf("reader %d delivered %d/%d rows", r, len(got[r]), rows)
		}
		for i, v := range got[r] {
			if v != float64(i) {
				t.Fatalf("reader %d row %d = %v", r, i, v)
			}
		}
	}
	if len(origin.moves) != chunks {
		t.Fatalf("%d distinct chunk objects left the origin, dataset has %d", len(origin.moves), chunks)
	}
	for key, n := range origin.moves {
		if n != 1 {
			t.Fatalf("chunk object %s left the origin %d times for %d readers of one cache, want once", key, n, readers)
		}
	}
}

// wideDataset builds n rows of one tensor "x", [256]int32 whose first
// element is the row number, four rows to a chunk. Its chunk objects come
// within a few percent of the 4 KiB chunk target, the size the strip
// look-ahead estimates a chunk at; loaderDataset's 16-byte rows carry about
// as many bytes of index as of payload, so its chunk objects run at twice
// their target.
func wideDataset(t testing.TB, store storage.Provider, n int) *core.Dataset {
	t.Helper()
	return gridDataset(t, store, n, 4)
}

// TestLookAheadNeverEvictsItsOwnPrefetches: the strip look-ahead owes the
// byte cache at most its capacity — strips still on the wire plus landed
// chunks nobody has read — and the cache never drops an unread chunk, so
// however the workers are scheduled, no prefetched chunk is evicted before a
// worker reads it: every chunk object leaves the origin exactly once, for one
// shuffled loader at any worker count and for four ranks of one node
// streaming at once through the one cache, whose headroom they share. The
// cache holds a quarter of the dataset, so the look-ahead fills it with
// unread chunks; the feeder's own lead (every job it has queued or handed
// out, four ranks at once), which it covers whatever the headroom, runs it
// over budget rather than evict them.
func TestLookAheadNeverEvictsItsOwnPrefetches(t *testing.T) {
	ctx := context.Background()
	origin := &chunkMoves{Provider: storage.NewMemory(), moves: map[string]int{}}
	seed := wideDataset(t, origin, 2048)
	chunks := seed.Tensor("x").NumChunks()
	capacity := int64(chunks/4) * int64(seed.Tensor("x").Meta().Bounds.Target)

	// run streams one epoch through each of opts at once, all over one fresh
	// cache, and wants every chunk object moved once.
	run := func(name string, opts ...Options) {
		t.Helper()
		clear(origin.moves)
		cache := storage.NewLRU(origin, capacity)
		errs := make([]error, len(opts))
		delivered := make([]int, len(opts))
		var wg sync.WaitGroup
		for i, o := range opts {
			wg.Add(1)
			go func(i int, o Options) {
				defer wg.Done()
				ds, err := core.Open(ctx, cache)
				if err != nil {
					errs[i] = err
					return
				}
				l := ForDataset(ds, o)
				for b := range l.Batches(ctx) {
					delivered[i] += len(b.Samples)
				}
				errs[i] = l.Err()
			}(i, o)
		}
		wg.Wait()
		rows := 0
		for i, err := range errs {
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			rows += delivered[i]
		}
		if rows != 2048 {
			t.Fatalf("%s: delivered %d/2048 rows", name, rows)
		}
		if len(origin.moves) != chunks {
			t.Fatalf("%s: %d distinct chunk objects left the origin, dataset has %d", name, len(origin.moves), chunks)
		}
		for key, n := range origin.moves {
			if n != 1 {
				t.Fatalf("%s: chunk object %s left the origin %d times, want once", name, key, n)
			}
		}
	}
	for _, workers := range []int{1, 4, 16} {
		run(fmt.Sprintf("workers=%d", workers), Options{BatchSize: 16, Workers: workers, Shuffle: true, Seed: 21})
	}
	var ranks []Options
	for r := 0; r < 4; r++ {
		ranks = append(ranks, Options{BatchSize: 16, Workers: 4, Shuffle: true, Seed: 21, Rank: r, WorldSize: 4})
	}
	run("4 ranks", ranks...)
}

// gatedOrigin parks every batched read until gate is closed, announcing it on
// held first, so a test can count the strip requests in flight.
type gatedOrigin struct {
	storage.Provider
	held chan struct{}
	gate chan struct{}
}

func (g *gatedOrigin) GetRanges(ctx context.Context, reqs []storage.RangeReq) ([][]byte, error) {
	g.held <- struct{}{}
	select {
	case <-g.gate:
	case <-ctx.Done():
		return make([][]byte, len(reqs)), ctx.Err()
	}
	return storage.GetRanges(ctx, g.Provider, reqs)
}

// TestLookAheadDepthIsTheByteCache counts the look-ahead instead of timing
// it. Over a byte cache of capacity C, with every strip request held at the
// origin, a cold epoch's feeder issues ⌊C ÷ S⌋ strips, S being a strip's
// estimated bytes (stripWidth chunks at the chunk target): the strip under
// the first job, which goes out whatever the headroom, and then more while
// they fit in the cache (a fixed one-strip-ahead rule holds 2). The cache's
// headroom is then below one strip, so nothing more can be issued until
// bytes land. Released, the epoch is byte-identical to one worker's.
func TestLookAheadDepthIsTheByteCache(t *testing.T) {
	ctx := context.Background()
	mem := storage.NewMemory()
	ds := wideDataset(t, mem, 512)
	x := ds.Tensor("x")
	stripBytes := int64(stripWidth) * int64(x.Meta().Bounds.Target)
	capacity := 19 * stripBytes / 2 // 9½ strips
	depth := int(capacity / stripBytes)
	if strips := (x.NumChunks() + stripWidth - 1) / stripWidth; strips <= depth+1 {
		t.Fatalf("%d strips in the epoch: too few to see the look-ahead stop at %d", strips, depth)
	}
	// Workers 4 keeps the feeder's own lead (the queued and handed-out jobs,
	// whose strips go out whatever the headroom) inside the first strips.
	opts := Options{BatchSize: 16, Workers: 4, Shuffle: true, Seed: 5}

	// held has a slot for every strip request of the epoch, so sends after
	// the count is taken never block.
	origin := &gatedOrigin{Provider: mem, held: make(chan struct{}, 64), gate: make(chan struct{})}
	cache := storage.NewLRU(origin, capacity)
	gated, err := core.Open(ctx, cache)
	if err != nil {
		t.Fatal(err)
	}
	type epoch struct {
		hash uint64
		rows int
		err  error
	}
	done := make(chan epoch, 1)
	go func() {
		h, n, l := epochHash(t, gated, opts)
		done <- epoch{h, n, l.Err()}
	}()
	for i := 0; i < depth; i++ {
		<-origin.held
	}
	// Nothing has landed, so the cache owes exactly the claimed strips.
	if room, want := storage.Headroom(cache), capacity-int64(depth)*stripBytes; room != want || room >= stripBytes {
		t.Fatalf("with %d strips held, headroom = %d, want %d (< one strip of %d)", depth, room, want, stripBytes)
	}
	close(origin.gate)
	got := <-done
	if got.err != nil || got.rows != 512 {
		t.Fatalf("gated epoch delivered %d/512 rows, err %v", got.rows, got.err)
	}
	opts.Workers = 1
	want, _, l := epochHash(t, ds, opts)
	if err := l.Err(); err != nil {
		t.Fatal(err)
	}
	if got.hash != want {
		t.Fatal("the gated epoch's batches differ from a one-worker epoch's")
	}
}

// claimCounter sits above a byte cache like a tracing tap and counts the
// chunk objects its strips claim, so a test can wait until every claim has
// landed or been shed.
type claimCounter struct {
	*storage.LRU
	claimed atomic.Int64
	// ranges counts the claims of PrefetchRanges, which claimed includes.
	ranges atomic.Int64
}

func (c *claimCounter) Unwrap() storage.Provider { return c.LRU }

func (c *claimCounter) PrefetchAsync(ctx context.Context, keys []string, opts storage.PlanOptions) int {
	n := c.LRU.PrefetchAsync(ctx, keys, opts)
	c.claimed.Add(int64(n))
	return n
}

func (c *claimCounter) PrefetchRanges(ctx context.Context, reqs []storage.RangeReq, opts storage.PlanOptions) int {
	n := c.LRU.PrefetchRanges(ctx, reqs, opts)
	c.claimed.Add(int64(n))
	c.ranges.Add(int64(n))
	return n
}

// settled waits, without a clock, until every claim has landed or been shed.
func (c *claimCounter) settled() {
	for st := c.Stats(); st.Prefetched+st.PrefetchShed < c.claimed.Load(); st = c.Stats() {
		runtime.Gosched()
	}
}

// TestSecondLoaderOverWarmNodeCacheMovesNothing: a loader over a node cache
// that already holds every decoded chunk claims none of their stored bytes.
// Its workers read nothing from storage, so a claim would move chunk objects
// no one reads and leave them owed to the byte cache for good, with no
// look-ahead left for any later walk over it.
func TestSecondLoaderOverWarmNodeCacheMovesNothing(t *testing.T) {
	ctx := context.Background()
	origin := &chunkMoves{Provider: storage.NewMemory(), moves: map[string]int{}}
	seed := wideDataset(t, origin, 2048)
	chunks := seed.Tensor("x").NumChunks()
	capacity := int64(chunks/4) * int64(seed.Tensor("x").Meta().Bounds.Target)
	cache := &claimCounter{LRU: storage.NewLRU(origin, capacity)}
	ds, err := core.Open(ctx, cache)
	if err != nil {
		t.Fatal(err)
	}
	node := NewNodeCache(0)
	opts := Options{BatchSize: 16, Workers: 4, Shuffle: true, Seed: 21, Cache: node}
	if rows := len(epochRows(t, ForDataset(ds, opts))); rows != 2048 {
		t.Fatalf("first loader delivered %d/2048 rows", rows)
	}
	if decodes := node.Stats().Decodes; decodes != int64(chunks) {
		t.Fatalf("first loader decoded %d of %d chunks", decodes, chunks)
	}
	clear(origin.moves)
	second := ForDataset(ds, opts)
	if rows := len(epochRows(t, second)); rows != 2048 {
		t.Fatalf("second loader delivered %d/2048 rows", rows)
	}
	cache.settled()
	if len(origin.moves) != 0 || second.CacheDecodes() != 0 {
		t.Fatalf("second loader moved %d chunk objects and decoded %d chunks, want none", len(origin.moves), second.CacheDecodes())
	}
	if room := storage.Headroom(cache); room != capacity {
		t.Fatalf("after both loaders, headroom = %d, want the whole %d", room, capacity)
	}
}

// TestCancelledLoaderLeavesNoDebt: a loader cancelled after its first batch
// hands back every claim its workers never read, including those still on
// the wire, so once they land the byte cache's headroom is its capacity again
// and the next walk has its full look-ahead.
func TestCancelledLoaderLeavesNoDebt(t *testing.T) {
	ctx := context.Background()
	mem := storage.NewMemory()
	seed := wideDataset(t, mem, 2048)
	capacity := int64(seed.Tensor("x").NumChunks()/4) * int64(seed.Tensor("x").Meta().Bounds.Target)
	cache := &claimCounter{LRU: storage.NewLRU(mem, capacity)}
	ds, err := core.Open(ctx, cache)
	if err != nil {
		t.Fatal(err)
	}
	run, cancel := context.WithCancel(ctx)
	defer cancel()
	l := ForDataset(ds, Options{BatchSize: 16, Workers: 4, Shuffle: true, Seed: 21})
	rows := 0
	for b := range l.Batches(run) {
		rows += len(b.Samples)
		cancel()
	}
	if !errors.Is(l.Err(), context.Canceled) || rows >= 2048 {
		t.Fatalf("cancelled loader delivered %d/2048 rows, err %v", rows, l.Err())
	}
	cache.settled()
	if cache.claimed.Load() == 0 {
		t.Fatal("the loader claimed nothing before its first batch")
	}
	if room := storage.Headroom(cache); room != capacity {
		t.Fatalf("after a cancelled epoch, headroom = %d, want the whole %d", room, capacity)
	}
}

func TestReadaheadDisabled(t *testing.T) {
	ds := loaderDataset(t, storage.NewMemory(), 64)
	l := ForDataset(ds, Options{BatchSize: 8, Workers: 4})
	rows := epochRows(t, l)
	if len(rows) != 64 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i, v := range rows {
		if v != float64(i) {
			t.Fatalf("row %d = %v", i, v)
		}
	}
}

// TestReadaheadWarmsCache: a single worker behind the feeder's look-ahead
// still fetches no chunk twice and decodes each exactly once.
func TestReadaheadWarmsCache(t *testing.T) {
	counting := storage.NewCounting(storage.NewMemory())
	ds := loaderDataset(t, counting, 256)
	chunks := int64(ds.Tensor("x").NumChunks() + ds.Tensor("label").NumChunks())
	counting.Reset()
	l := ForDataset(ds, Options{BatchSize: 16, Workers: 1})
	drain(t, l)
	if gets := counting.Snapshot().Gets; gets > chunks {
		t.Fatalf("epoch fetched %d objects for %d chunks", gets, chunks)
	}
	if decodes := l.CacheDecodes(); decodes != chunks {
		t.Fatalf("decoded %d chunks, want exactly %d", decodes, chunks)
	}
}

// TestEpochPlanInvariants checks the plan the pipeline relies on: every view
// row appears in exactly one chunk job, the delivery sequences form a
// permutation, sub-jobs of a split group stay adjacent and share their
// group's DISTINCT chunk ordinal (the strip look-ahead is measured in
// chunks, not jobs), and rows inside a job stay in stored order (the
// ScanReader's decode-once walk).
func TestEpochPlanInvariants(t *testing.T) {
	ds := loaderDataset(t, storage.NewMemory(), 128)
	v := view.All(ds)
	primary := primaryColumn(v.Columns())
	groups := chunkGroups(v, primary)
	for _, shuffle := range []bool{false, true} {
		o := Options{Shuffle: shuffle, ShuffleBuffer: 32, Seed: 3}.withDefaults()
		shard := buildShard(groups, o, 0)
		plan := buildPlan(v, shard, o, 0)
		if plan.rows != 128 {
			t.Fatalf("shuffle=%v: plan delivers %d rows, want 128", shuffle, plan.rows)
		}
		seenRow := map[int]bool{}
		seenSeq := map[int]bool{}
		lastOrd := -1
		for _, cj := range plan.jobs {
			if cj.ord != lastOrd && cj.ord != lastOrd+1 {
				t.Fatalf("job ordinal jumps %d -> %d (sub-jobs must stay adjacent, ordinals dense)", lastOrd, cj.ord)
			}
			if cj.ord < 0 || cj.ord >= len(shard.groups) {
				t.Fatalf("ordinal %d out of range for %d visit groups", cj.ord, len(shard.groups))
			}
			if cj.chunkID == noChunk {
				t.Fatalf("ordinal %d has no chunk despite a stored primary", cj.ord)
			}
			if cj.chunkID != plan.groups[cj.ord].key {
				t.Fatalf("ordinal %d carries chunk %d, itinerary holds %d", cj.ord, cj.chunkID, plan.groups[cj.ord].key)
			}
			lastOrd = cj.ord
			for i, rj := range cj.rows {
				if seenRow[rj.row] || seenSeq[rj.seq] {
					t.Fatalf("row %d / seq %d appears twice", rj.row, rj.seq)
				}
				seenRow[rj.row] = true
				seenSeq[rj.seq] = true
				if rj.seq < 0 || rj.seq >= plan.rows {
					t.Fatalf("seq %d out of range", rj.seq)
				}
				if i > 0 && rj.src <= cj.rows[i-1].src {
					t.Fatalf("ordinal %d rows not in stored order", cj.ord)
				}
			}
		}
		if lastOrd != len(shard.groups)-1 {
			t.Fatalf("jobs cover %d of %d visit ordinals", lastOrd+1, len(shard.groups))
		}
		if len(seenRow) != 128 {
			t.Fatalf("shuffle=%v: jobs cover %d/128 rows", shuffle, len(seenRow))
		}

		// The primary's strip plan is the itinerary itself: one chunk id
		// per itinerary group.
		ids, through, _ := stripIDs(v, ds.Tensor(primary), plan.groups)
		for ord, g := range plan.groups {
			if ids[ord] != g.key || through[ord] != ord+1 {
				t.Fatalf("itinerary ordinal %d (chunk %d): strip plan holds chunk %d and needs %d ids through it", ord, g.key, ids[ord], through[ord])
			}
		}
		// Rebuilding the shard reproduces the same visit order (Batches and
		// the feeder each regenerate it independently).
		again := buildShard(groups, o, 0)
		if len(again.groups) != len(shard.groups) || again.rows != shard.rows {
			t.Fatal("rebuilding the epoch shard changed the visit order")
		}
		for i := range again.groups {
			if again.groups[i].key != shard.groups[i].key {
				t.Fatalf("rebuilt shard diverges at visit ordinal %d", i)
			}
		}
	}
}

// TestShuffleBufferBoundsDisplacement: the delivery order may run at most
// ShuffleBuffer rows behind the visit order — the bounded-buffer contract
// that keeps decoded-sample memory in check.
func TestShuffleBufferBoundsDisplacement(t *testing.T) {
	ds := loaderDataset(t, storage.NewMemory(), 256)
	v := view.All(ds)
	const buffer = 16
	o := Options{Shuffle: true, ShuffleBuffer: buffer, Seed: 9}.withDefaults()
	groups := chunkGroups(v, primaryColumn(v.Columns()))
	shard := buildShard(groups, o, 0)
	plan := buildPlan(v, shard, o, 0)
	seqOf := map[int]int{}
	for _, cj := range plan.jobs {
		for _, rj := range cj.rows {
			seqOf[rj.row] = rj.seq
		}
	}
	visit := 0
	for _, g := range shard.groups {
		for _, row := range g.rows {
			// A row entering the buffer at visit position p is emitted no
			// earlier than p-buffer.
			if seq := seqOf[row]; seq < visit-buffer {
				t.Fatalf("row %d entered at visit %d but delivered at %d (buffer %d)", row, visit, seq, buffer)
			}
			visit++
		}
	}
}

// TestPrefetchPlanNilForComputedViews: a view with only computed columns has
// no chunk itinerary and the strip look-ahead must stand down.
func TestPrefetchPlanNilForComputedViews(t *testing.T) {
	ds := loaderDataset(t, storage.NewMemory(), 16)
	v := view.New(ds, []uint64{0, 1, 2, 3}, []view.Column{
		{Name: "c", Eval: func(ctx context.Context, row uint64) (*tensor.NDArray, error) {
			return tensor.Scalar(tensor.Float64, float64(row)), nil
		}},
	})
	primary := primaryColumn(v.Columns())
	if primary != "" {
		t.Fatalf("computed view has primary %q", primary)
	}
	o := Options{}.withDefaults()
	groups := chunkGroups(v, primary)
	plan := buildPlan(v, buildShard(groups, o, 0), o, 0)
	if got := len(plan.jobs); got != 4 {
		t.Fatalf("computed view produced %d jobs, want 4 per-row jobs", got)
	}
	if ts := stripTensors(v, v.Columns()); len(ts) != 0 {
		t.Fatalf("strip tensors = %v, want none", ts)
	}
	// The loader still streams fine without a plan.
	l := New(v, Options{BatchSize: 2, Workers: 2})
	if got := len(drain(t, l)); got != 2 {
		t.Fatalf("batches = %d", got)
	}
}
