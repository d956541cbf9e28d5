package dataloader

import (
	"context"
	"sync"
	"testing"

	"repro/internal/chunk"
	"repro/internal/core"
	"repro/internal/storage"
	"repro/internal/tensor"
)

// The node-cache suite: multiple Loaders sharing one NodeCache on a
// simulated node. Run with -race — the point of the promotion is concurrent
// loaders over shared shards.

// TestSharedNodeCacheDecodesOncePerNode is the tentpole contract: rank
// loaders sharing a NodeCache, streaming concurrently, fetch+decode each
// distinct chunk exactly once per NODE — summed across loaders — where
// rank-private caches would re-decode every shared (secondary) chunk per
// rank.
func TestSharedNodeCacheDecodesOncePerNode(t *testing.T) {
	inner := storage.NewMemory()
	counting := storage.NewCounting(inner)
	ds := loaderDataset(t, counting, 256)
	chunks := int64(ds.Tensor("x").NumChunks() + ds.Tensor("label").NumChunks())
	counting.Reset()

	const world = 4
	node := NewNodeCache(0)
	loaders := make([]*Loader, world)
	rows := make([]int64, world)
	var wg sync.WaitGroup
	for rank := 0; rank < world; rank++ {
		loaders[rank] = ForDataset(ds, Options{
			BatchSize: 16, Workers: 8, Shuffle: true, Seed: 3,
			Rank: rank, WorldSize: world, Cache: node,
		})
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			for b := range loaders[rank].Batches(context.Background()) {
				rows[rank] += int64(len(b.Samples))
			}
		}(rank)
	}
	wg.Wait()

	var total, decodes int64
	for rank, l := range loaders {
		if err := l.Err(); err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
		total += rows[rank]
		decodes += l.CacheDecodes()
	}
	if total != 256 {
		t.Fatalf("ranks delivered %d/256 rows together", total)
	}
	if decodes != chunks {
		t.Fatalf("node decoded %d chunks across %d ranks, want exactly %d (decode-once per node)", decodes, world, chunks)
	}
	if ns := node.Stats(); ns.Decodes != decodes {
		t.Fatalf("cache counted %d decodes, loaders attribute %d", ns.Decodes, decodes)
	}
	// Fetch-once holds at node level too: each chunk object moved from
	// origin once for all four ranks.
	if gets := counting.Snapshot().Gets; gets != chunks {
		t.Fatalf("node fetched %d objects for %d chunks (fetch-once per node)", gets, chunks)
	}
}

// offsetDataset builds a dataset shaped exactly like loaderDataset — same
// tensor names, same chunk bounds, therefore the same colliding chunk ids —
// but with every "x" value shifted by off, so any cross-dataset cache
// aliasing delivers detectably wrong bytes.
func offsetDataset(t testing.TB, store storage.Provider, n int, off float64) *core.Dataset {
	t.Helper()
	ctx := context.Background()
	ds, err := core.Create(ctx, store, "offsettest")
	if err != nil {
		t.Fatal(err)
	}
	x, _ := ds.CreateTensor(ctx, core.TensorSpec{Name: "x", Dtype: tensor.Int32, Bounds: smallBounds})
	lbl, _ := ds.CreateTensor(ctx, core.TensorSpec{Name: "label", Htype: "class_label", Bounds: smallBounds})
	for i := 0; i < n; i++ {
		v := float64(i) + off
		arr, _ := tensor.FromFloat64s(tensor.Int32, []int{4}, []float64{v, v + 1, v + 2, v + 3})
		if err := x.Append(ctx, arr); err != nil {
			t.Fatal(err)
		}
		if err := lbl.Append(ctx, tensor.Scalar(tensor.Int32, float64(i%5))); err != nil {
			t.Fatal(err)
		}
	}
	if err := ds.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	return ds
}

// TestSharedNodeCacheCrossDatasetIsolation is the key-collision satellite's
// regression test: two Loaders over two different datasets — identical
// tensor names, identical chunk ids — share one NodeCache and must never
// serve each other's bytes. Under the old (tensor, chunkID) key every
// lookup aliased; the (dataset, commit, tensor, chunk) key isolates them.
func TestSharedNodeCacheCrossDatasetIsolation(t *testing.T) {
	const n, off = 96, 100000
	dsA := loaderDataset(t, storage.NewMemory(), n)
	dsB := offsetDataset(t, storage.NewMemory(), n, off)
	assertNoCacheAliasing(t, dsA, dsB, n, off)
}

// TestSharedNodeCacheTimeTravelIsolation is the same contract for
// time-travel handles: version ids are counters, so two different datasets'
// ReadAtVersion twins carry the same version, tensor and chunk ids, and only
// the handle's ScopeID keeps their decoded chunks apart. A twin built
// without a scope (ScopeID 0 on both) served dataset A's rows to dataset B.
func TestSharedNodeCacheTimeTravelIsolation(t *testing.T) {
	const n, off = 96, 100000
	ctx := context.Background()
	atFirstCommit := func(ds *core.Dataset) *core.Dataset {
		id, err := ds.Commit(ctx, "first")
		if err != nil {
			t.Fatal(err)
		}
		twin, err := ds.ReadAtVersion(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		return twin
	}
	twinA := atFirstCommit(loaderDataset(t, storage.NewMemory(), n))
	twinB := atFirstCommit(offsetDataset(t, storage.NewMemory(), n, off))
	if twinA.ScopeID() == twinB.ScopeID() {
		t.Fatalf("time-travel handles of two datasets share ScopeID %d", twinA.ScopeID())
	}
	assertNoCacheAliasing(t, twinA, twinB, n, off)
}

// assertNoCacheAliasing streams dsA (x rows 0..n) and dsB (x rows off..off+n)
// concurrently through one shared NodeCache and fails if either loader is
// handed the other dataset's bytes.
func assertNoCacheAliasing(t *testing.T, dsA, dsB *core.Dataset, n int, off float64) {
	t.Helper()
	node := NewNodeCache(0)
	check := func(ds *core.Dataset, base float64) {
		l := ForDataset(ds, Options{BatchSize: 8, Workers: 4, Cache: node})
		seen := 0
		for b := range l.Batches(context.Background()) {
			for _, s := range b.Samples {
				v, _ := s["x"].At(0)
				if v != base+float64(seen) {
					t.Errorf("row %d of dataset with base %v delivered %v (cross-dataset cache aliasing)", seen, base, v)
				}
				seen++
			}
		}
		if err := l.Err(); err != nil {
			t.Errorf("loader: %v", err)
		}
		if seen != n {
			t.Errorf("delivered %d/%d rows", seen, n)
		}
	}

	// Concurrently, so the aliasing window (if any) is actually exercised.
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); check(dsA, 0) }()
	go func() { defer wg.Done(); check(dsB, off) }()
	wg.Wait()

	// Both datasets' chunks are resident under distinct keys.
	if st := node.Stats(); st.Decodes < 2 {
		t.Fatalf("shared cache decoded %d chunks, want work from both datasets", st.Decodes)
	}
}

// TestNodeCachePinBlocksEviction unit-tests the eviction-pin mechanism: a
// pinned entry survives budget pressure that evicts its unpinned neighbors,
// and loses protection once unpinned.
func TestNodeCachePinBlocksEviction(t *testing.T) {
	ctx := context.Background()
	x := loaderDataset(t, storage.NewMemory(), 256).Tensor("x")
	if x.NumChunks() < 4 {
		t.Fatalf("%d chunks, want 4 distinct keys", x.NumChunks())
	}
	c := NewNodeCache(100) // single shard, tiny budget
	admit := func(key core.ChunkKey) {
		t.Helper()
		if _, _, _, err := c.Load(ctx, key, func() (*chunk.Chunk, error) {
			return chunk.FromSamples([]chunk.Sample{{Data: make([]byte, 64)}}), nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	ka, kb, kc, kd := x.ChunkKey(0, nil), x.ChunkKey(1, nil), x.ChunkKey(2, nil), x.ChunkKey(3, nil)

	c.Pin(ka) // pinned before its entry exists, like the feeder does
	admit(ka)
	admit(kb) // over budget; a is pinned, b is the fresh admit → both stay
	if !c.Cached(ka) {
		t.Fatal("pinned entry evicted by the admit that overflowed the budget")
	}
	admit(kc) // b is now evictable and LRU → evicted; a stays
	if c.Cached(kb) {
		t.Fatal("unpinned LRU entry survived eviction pressure")
	}
	if !c.Cached(ka) {
		t.Fatal("pinned entry evicted while unpinned victims existed")
	}

	c.Unpin(ka)
	admit(kd) // a lost protection: evictable now
	if c.Cached(ka) {
		t.Fatal("unpinned entry survived eviction (pin leaked)")
	}
	if st := c.Stats(); st.Pinned != 0 {
		t.Fatalf("Pinned = %d after final unpin, want 0", st.Pinned)
	}
}

// TestTightBudgetKeepsDecodeOnce is the eviction satellite's loader-level
// regression: a MemoryBudget far smaller than the working set must not
// break the fetch+decode-once contract for chunks with
// planned-but-unstarted jobs, because those are pinned against eviction.
// (The single-field stream makes the contract exact: split sub-jobs of one
// chunk are the planned-but-unstarted window the old eviction violated. A
// chunk needed again megabytes later — a label chunk shared by every job of
// an epoch — is outside the pin window by design: re-reading it under a
// budget that cannot hold it is the budget working, not a contract
// violation.)
func TestTightBudgetKeepsDecodeOnce(t *testing.T) {
	inner := storage.NewMemory()
	counting := storage.NewCounting(inner)
	ds := loaderDataset(t, counting, 256)
	chunks := int64(ds.Tensor("x").NumChunks())
	counting.Reset()

	// 1 byte of budget: every admit overflows instantly, so without pins
	// any chunk still needed by a queued sub-job would be evicted and
	// silently re-decoded.
	l := ForDataset(ds, Options{
		BatchSize: 16, Workers: 8, Shuffle: true, Seed: 7, MemoryBudget: 1,
		Fields: []string{"x"},
	})
	batches := drain(t, l)
	rows := 0
	for _, b := range batches {
		rows += len(b.Samples)
	}
	if rows != 256 {
		t.Fatalf("delivered %d/256 rows", rows)
	}
	if got := l.CacheDecodes(); got != chunks {
		t.Fatalf("tight budget decoded %d chunks, want exactly %d (pins must protect planned jobs)", got, chunks)
	}
	if gets := counting.Snapshot().Gets; gets != chunks {
		t.Fatalf("tight budget fetched %d objects for %d chunks", gets, chunks)
	}
	// The pipeline released every pin on shutdown: nothing is left pinned
	// in the cache.
	if st := l.Cache().Stats(); st.Pinned != 0 {
		t.Fatalf("%d pins leaked past pipeline shutdown", st.Pinned)
	}
}

// TestMediaTightBudgetKeepsDecodeOnce is TestTightBudgetKeepsDecodeOnce on a
// JPEG primary, whose chunks serve jobs in every batch window their rows
// reach: the pins must hold each chunk from its first window to its last.
func TestMediaTightBudgetKeepsDecodeOnce(t *testing.T) {
	counting := storage.NewCounting(storage.NewMemory())
	ds := mediaDataset(t, counting, 3200)
	chunks := int64(ds.Tensor("x").NumChunks())
	counting.Reset()

	l := ForDataset(ds, Options{
		BatchSize: 32, ShuffleBuffer: 2048, Workers: 8, Shuffle: true, Seed: 7, MemoryBudget: 1,
		Fields: []string{"x"},
	})
	rows := 0
	for _, b := range drain(t, l) {
		rows += len(b.Samples)
	}
	if rows != 3200 {
		t.Fatalf("delivered %d/3200 rows", rows)
	}
	if got := l.CacheDecodes(); got != chunks {
		t.Fatalf("tight budget decoded %d chunks, want exactly %d", got, chunks)
	}
	if gets := counting.Snapshot().Gets; gets != chunks {
		t.Fatalf("tight budget fetched %d objects for %d chunks", gets, chunks)
	}
	if st := l.Cache().Stats(); st.Pinned != 0 {
		t.Fatalf("%d pins leaked past pipeline shutdown", st.Pinned)
	}
}
