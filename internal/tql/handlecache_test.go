package tql

import (
	"context"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/storage"
	"repro/internal/tensor"
)

// TestRepeatedFilterMovesNothing: lakebench's Q_filter shape (a WHERE and an
// ORDER BY on one column) run twice on one handle over Counting → LRU. The
// first run fetches and decodes each labels chunk once for both stages; the
// second makes no origin request and no LRU lookup, claims no strip and
// decodes nothing.
func TestRepeatedFilterMovesNothing(t *testing.T) {
	ctx := context.Background()
	count := storage.NewCounting(storage.NewMemory())
	labels := int64(scanDataset(t, count, 200, []int{4}).Tensor("labels").NumChunks())
	lru := storage.NewLRU(count, 64<<20)
	ds, err := core.Open(ctx, lru)
	if err != nil {
		t.Fatal(err)
	}
	const q = "SELECT * FROM scan WHERE labels < 2 ORDER BY labels LIMIT 20"
	for run := 0; run < 2; run++ {
		count.Reset()
		before, decodes := lru.Stats(), ds.ChunkCacheStats().Decodes
		var stats ScanStats
		v, err := RunWith(ctx, ds, q, Options{Workers: 2, Stats: &stats})
		if err != nil {
			t.Fatal(err)
		}
		if v.Len() != 20 {
			t.Fatalf("run %d: %d rows, want 20", run, v.Len())
		}
		after := lru.Stats()
		lookups := after.Hits + after.Misses - before.Hits - before.Misses
		decoded := ds.ChunkCacheStats().Decodes - decodes
		if run == 0 {
			if decoded != labels {
				t.Fatalf("first run decoded %d chunks, want each of the %d labels chunks once", decoded, labels)
			}
			continue
		}
		if reqs := count.Requests(); reqs != 0 || lookups != 0 || stats.PrefetchClaimed() != 0 || stats.PrefetchStrips() != 0 || decoded != 0 {
			t.Fatalf("repeat: %d origin requests, %d LRU lookups, %d decodes, %s; want all zero", reqs, lookups, decoded, &stats)
		}
	}
}

// TestHandleCacheStaysWithinItsBudget: a scan over more chunk bytes than the
// handle cache's derived budget (5/3 of the chain's LRU) evicts, and the
// cache's high-water mark stays within the budget.
func TestHandleCacheStaysWithinItsBudget(t *testing.T) {
	ctx := context.Background()
	mem := storage.NewMemory()
	scanDataset(t, mem, 300, []int{8})
	lru := storage.NewLRU(mem, 6<<10)
	ds, err := core.Open(ctx, lru)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunWith(ctx, ds, "SELECT * FROM scan WHERE MEAN(x) >= 0", Options{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	budget := storage.DecodedBytesOver(lru)
	st := ds.ChunkCacheStats()
	if st.Capacity != budget || budget != 10<<10 {
		t.Fatalf("cache capacity %d, derived budget %d, want 5/3 of the 6 KiB LRU", st.Capacity, budget)
	}
	if scanned := int64(300 * 8 * 8); scanned <= budget || st.Evictions == 0 {
		t.Fatalf("scanned %d bytes against a %d byte budget with %d evictions: the scan must overflow it", scanned, budget, st.Evictions)
	}
	if st.PeakBytes > budget {
		t.Fatalf("handle cache peaked at %d bytes, budget %d", st.PeakBytes, budget)
	}
}

// chunkGets counts the Gets of chunk objects that pass it.
type chunkGets struct {
	storage.Provider
	n atomic.Int64
}

func (c *chunkGets) Get(ctx context.Context, key string) ([]byte, error) {
	if strings.Contains(key, "/chunks/") {
		c.n.Add(1)
	}
	return c.Provider.Get(ctx, key)
}

// TestRepeatedVersionQueryMovesNothing: a VERSION query reads through a
// twin of the handle, which shares the handle's decoded-chunk cache, so its
// second run fetches and decodes no chunk. Its WHERE makes it read every row.
func TestRepeatedVersionQueryMovesNothing(t *testing.T) {
	ctx := context.Background()
	store := &chunkGets{Provider: storage.NewMemory()}
	ds, err := core.Create(ctx, store, "versions")
	if err != nil {
		t.Fatal(err)
	}
	x, err := ds.CreateTensor(ctx, core.TensorSpec{Name: "x", Dtype: tensor.Int32, Bounds: smallBounds})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 400; i++ {
		if err := x.Append(ctx, tensor.Scalar(tensor.Int32, float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	c1, err := ds.Commit(ctx, "rows")
	if err != nil {
		t.Fatal(err)
	}
	if err := x.Append(ctx, tensor.Scalar(tensor.Int32, 400)); err != nil {
		t.Fatal(err)
	}
	q := `SELECT x FROM versions WHERE x >= 0 VERSION "` + c1 + `"`
	for run := 0; run < 2; run++ {
		store.n.Store(0)
		decodes := ds.ChunkCacheStats().Decodes
		v, err := Run(ctx, ds, q)
		if err != nil {
			t.Fatal(err)
		}
		if v.Len() != 400 {
			t.Fatalf("run %d: %d rows at %s, want 400", run, v.Len(), c1)
		}
		gets, decoded := store.n.Load(), ds.ChunkCacheStats().Decodes-decodes
		if run == 0 {
			if gets == 0 {
				t.Fatal("the first run read no chunk; the repeat shows nothing")
			}
			continue
		}
		if gets != 0 || decoded != 0 {
			t.Fatalf("repeat: %d chunk Gets and %d decodes, want none", gets, decoded)
		}
	}
}
