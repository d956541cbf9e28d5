package core

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/chunk"
	"repro/internal/storage"
	"repro/internal/tensor"
)

// lineageRows builds readOnceRows int32 rows of "x" in readOnceChunks
// chunks over store, committed; the handle stays on main.
func lineageRows(t *testing.T, store storage.Provider) (*Dataset, string) {
	t.Helper()
	ctx := context.Background()
	ds, err := Create(ctx, store, "lineage")
	if err != nil {
		t.Fatal(err)
	}
	x, err := ds.CreateTensor(ctx, TensorSpec{Name: "x", Dtype: tensor.Int32, Bounds: smallBounds})
	if err != nil {
		t.Fatal(err)
	}
	appendInt32Rows(t, x, readOnceRows)
	c1, err := ds.Commit(ctx, "rows")
	if err != nil {
		t.Fatal(err)
	}
	if n := x.NumChunks(); n != readOnceChunks {
		t.Fatalf("%d rows in %d chunks, want %d", readOnceRows, n, readOnceChunks)
	}
	return ds, c1
}

// TestTwinsReadThroughTheLineageCache: once the handle has read its rows, a
// ReadAtVersion twin at the commit holding them, a second twin and a twin of
// that twin read every row with no chunk Get and no decode: they share the
// handle's scope and decoded-chunk cache.
func TestTwinsReadThroughTheLineageCache(t *testing.T) {
	ctx := context.Background()
	store := &chunkGets{Provider: storage.NewMemory()}
	ds, c1 := lineageRows(t, store)
	checkRows(t, ds.Tensor("x"), readOnceRows)
	store.n.Store(0)
	decodes := ds.ChunkCacheStats().Decodes
	src := ds
	for i, name := range []string{"twin", "second twin", "twin of a twin"} {
		twin, err := src.ReadAtVersion(ctx, c1)
		if err != nil {
			t.Fatal(err)
		}
		checkRows(t, twin.Tensor("x"), readOnceRows)
		if gets, st := store.n.Load(), ds.ChunkCacheStats(); gets != 0 || st.Decodes != decodes {
			t.Fatalf("%s: %d chunk Gets and %d decodes after the handle read the rows, want none", name, gets, st.Decodes-decodes)
		}
		if twin.ScopeID() != ds.ScopeID() {
			t.Fatalf("%s has scope %d, its lineage %d", name, twin.ScopeID(), ds.ScopeID())
		}
		if i > 0 {
			src = twin
		}
	}
}

// TestSecondTiledReadMovesNothing: a 128×128 uint8 sample tiled under a
// 4 KiB Bounds.Max is read through the handle's cache, so a second read of
// it makes no Get.
func TestSecondTiledReadMovesNothing(t *testing.T) {
	ctx := context.Background()
	store := storage.NewCounting(storage.NewMemory())
	ds, err := Create(ctx, store, "tiles")
	if err != nil {
		t.Fatal(err)
	}
	x, err := ds.CreateTensor(ctx, TensorSpec{Name: "x", Dtype: tensor.UInt8,
		Bounds: chunk.Bounds{Min: 1 << 10, Target: 2 << 10, Max: 4 << 10}})
	if err != nil {
		t.Fatal(err)
	}
	pixels := make([]byte, 128*128)
	for i := range pixels {
		pixels[i] = byte(i % 253)
	}
	big, err := tensor.FromBytes(tensor.UInt8, []int{128, 128}, pixels)
	if err != nil {
		t.Fatal(err)
	}
	if err := x.Append(ctx, big); err != nil {
		t.Fatal(err)
	}
	if err := ds.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	entry, ok := x.tileEnc.Get(0)
	if !ok || len(entry.ChunkIDs) < 2 {
		t.Fatalf("want a tiled sample, got %+v", entry)
	}
	for read := 0; read < 2; read++ {
		store.Reset()
		got, err := x.At(ctx, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(big) {
			t.Fatalf("read %d of the tiled sample reads other bytes", read)
		}
		want := int64(len(entry.ChunkIDs))
		if read > 0 {
			want = 0
		}
		if gets := store.Snapshot().Gets; gets != want {
			t.Fatalf("read %d of a sample in %d tiles made %d Gets, want %d", read, len(entry.ChunkIDs), gets, want)
		}
	}
}

// TestSetAtIntoADecodedChunkMovesNothing: SetAt reads the chunk it rewrites
// through the handle's cache, so into a chunk the handle holds decoded it
// makes no Get, and every row reads what was written.
func TestSetAtIntoADecodedChunkMovesNothing(t *testing.T) {
	ctx := context.Background()
	store := &chunkGets{Provider: storage.NewMemory()}
	ds, _ := lineageRows(t, store)
	x := ds.Tensor("x")
	checkRows(t, x, readOnceRows)
	store.n.Store(0)
	if err := x.SetAt(ctx, 40, tensor.Scalar(tensor.Int32, 1040)); err != nil {
		t.Fatal(err)
	}
	if gets := store.n.Load(); gets != 0 {
		t.Fatalf("SetAt into a decoded chunk made %d chunk Gets, want 0", gets)
	}
	for i := 0; i < readOnceRows; i++ {
		want := i
		if i == 40 {
			want = 1040
		}
		if got := readInt(t, x, uint64(i)); got != want {
			t.Fatalf("row %d holds %d, want %d", i, got, want)
		}
	}
}

// TestMergeOfReadRowsMovesNothing: the handle reads dev's rows, checks out
// main and merges dev. Merge's source twin shares the handle's cache, so it
// fetches no source chunk again.
func TestMergeOfReadRowsMovesNothing(t *testing.T) {
	ctx := context.Background()
	store := &chunkGets{Provider: storage.NewMemory()}
	ds, err := Create(ctx, store, "merge")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ds.CreateTensor(ctx, TensorSpec{Name: "x", Dtype: tensor.Int32, Bounds: smallBounds}); err != nil {
		t.Fatal(err)
	}
	if _, err := ds.Commit(ctx, "base"); err != nil {
		t.Fatal(err)
	}
	if err := ds.Checkout(ctx, "dev", true); err != nil {
		t.Fatal(err)
	}
	appendInt32Rows(t, ds.Tensor("x"), readOnceRows)
	if _, err := ds.Commit(ctx, "rows"); err != nil {
		t.Fatal(err)
	}
	checkRows(t, ds.Tensor("x"), readOnceRows)
	if err := ds.Checkout(ctx, "main", false); err != nil {
		t.Fatal(err)
	}
	store.n.Store(0)
	if err := ds.Merge(ctx, "dev", MergeTheirs); err != nil {
		t.Fatal(err)
	}
	if gets := store.n.Load(); gets != 0 {
		t.Fatalf("Merge made %d chunk Gets of source chunks the handle holds decoded, want 0", gets)
	}
	checkRows(t, ds.Tensor("x"), readOnceRows)
}

// gateFirst holds the first Get of key until release is closed, and closes
// entered when it arrives.
type gateFirst struct {
	storage.Provider
	key              string
	armed            atomic.Bool
	entered, release chan struct{}
}

func (g *gateFirst) Get(ctx context.Context, key string) ([]byte, error) {
	if key == g.key && g.armed.CompareAndSwap(true, false) {
		close(g.entered)
		<-g.release
	}
	return g.Provider.Get(ctx, key)
}

// TestSetAtWaitsOnATwinsLoad: a twin's read of a chunk leads its load in the
// shared cache and is held inside its Get; the head's SetAt into a row of
// that chunk, holding the tensor's write lock, misses and waits on the same
// load. The twin's load needs none of the head's locks, so both finish: one
// Get between them, the twin reading the committed row and the head the
// written one. A deadlock hangs the test.
func TestSetAtWaitsOnATwinsLoad(t *testing.T) {
	ctx := context.Background()
	counting := storage.NewCounting(storage.NewMemory())
	gate := &gateFirst{Provider: counting, entered: make(chan struct{}), release: make(chan struct{})}
	ds, c1 := lineageRows(t, gate)
	twin, err := ds.ReadAtVersion(ctx, c1)
	if err != nil {
		t.Fatal(err)
	}
	x := ds.Tensor("x")
	gate.key = x.ChunkIdentity(0)
	gate.armed.Store(true)
	counting.Reset()

	var wg sync.WaitGroup
	var twinRow *tensor.NDArray
	wg.Add(2)
	go func() {
		defer wg.Done()
		var err error
		if twinRow, err = twin.Tensor("x").At(ctx, 3); err != nil {
			t.Error(err)
		}
	}()
	<-gate.entered
	misses := ds.ChunkCacheStats().Misses
	go func() {
		defer wg.Done()
		if err := x.SetAt(ctx, 3, tensor.Scalar(tensor.Int32, 1003)); err != nil {
			t.Error(err)
		}
	}()
	for ds.ChunkCacheStats().Misses == misses {
		runtime.Gosched()
	}
	close(gate.release)
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if gets := counting.Snapshot().Gets; gets != 1 {
		t.Fatalf("%d Gets of the chunk, want the twin's one load", gets)
	}
	if st := ds.ChunkCacheStats(); st.Coalesced != 1 {
		t.Fatalf("%d coalesced loads, want SetAt's", st.Coalesced)
	}
	if v, _ := twinRow.Item(); v != 3 {
		t.Fatalf("twin read row 3 as %v", v)
	}
	if got := readInt(t, x, 3); got != 1003 {
		t.Fatalf("head reads row 3 as %d after SetAt", got)
	}
}
