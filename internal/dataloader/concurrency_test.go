package dataloader

import (
	"context"
	"sort"
	"strings"
	"sync"
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
			if cj.chunkID != shard.groups[cj.ord].key {
				t.Fatalf("ordinal %d carries chunk %d, visit order holds %d", cj.ord, cj.chunkID, shard.groups[cj.ord].key)
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

		// The primary's strip plan is the visit order itself: one chunk id
		// per visit group.
		ids, through := stripIDs(v, ds.Tensor(primary), shard.groups)
		for ord, g := range shard.groups {
			if ids[ord] != g.key || through[ord] != ord+1 {
				t.Fatalf("visit ordinal %d (chunk %d): strip plan holds chunk %d and needs %d ids through it", ord, g.key, ids[ord], through[ord])
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
	plan := buildPlan(v, buildShard(groups, o, 0), o, 0)
	visit := 0
	for _, cj := range plan.jobs {
		for _, rj := range cj.rows {
			// A row entering the buffer at visit position p is emitted no
			// earlier than p-buffer.
			if rj.seq < visit-buffer {
				t.Fatalf("row %d entered at visit %d but delivered at %d (buffer %d)", rj.row, visit, rj.seq, buffer)
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
