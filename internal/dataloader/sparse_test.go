package dataloader

import (
	"context"
	"errors"
	"hash/fnv"
	"math/rand"
	"testing"

	"repro/internal/chunk"
	"repro/internal/core"
	"repro/internal/storage"
	"repro/internal/tensor"
	"repro/internal/view"
)

// framesDataset stores n rows of two raw columns with different chunk
// layouts: "x", 8000-byte frames sixteen to a 128 KiB chunk, and "y", rows of
// ySize bytes in 8 KiB chunks. Every byte comes from a seeded rng.
func framesDataset(t testing.TB, store storage.Provider, n, ySize int) *core.Dataset {
	t.Helper()
	ctx := context.Background()
	ds, err := core.Create(ctx, store, "frames")
	if err != nil {
		t.Fatal(err)
	}
	cols := []struct {
		name string
		size int
		b    chunk.Bounds
	}{
		{"x", 8000, chunk.Bounds{Min: 64 << 10, Target: 128 << 10, Max: 192 << 10}},
		{"y", ySize, chunk.Bounds{Min: 4 << 10, Target: 8 << 10, Max: 12 << 10}},
	}
	rng := rand.New(rand.NewSource(5))
	for _, c := range cols {
		tr, err := ds.CreateTensor(ctx, core.TensorSpec{Name: c.name, Dtype: tensor.UInt8, Bounds: c.b})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			arr := tensor.MustNew(tensor.UInt8, c.size)
			rng.Read(arr.Bytes())
			if err := tr.Append(ctx, arr); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := ds.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	return ds
}

// quarterView selects about one row in four, at seeded random.
func quarterView(ds *core.Dataset) *view.View {
	rng := rand.New(rand.NewSource(9))
	var rows []uint64
	for i := uint64(0); i < ds.NumRows(); i++ {
		if rng.Intn(4) == 0 {
			rows = append(rows, i)
		}
	}
	return view.New(ds, rows, nil)
}

// viewHash streams one epoch of v and hashes every delivered column's bytes
// in delivery order.
func viewHash(t *testing.T, v *view.View, opts Options) (uint64, int) {
	t.Helper()
	l := New(v, opts)
	h := fnv.New64a()
	n := 0
	for b := range l.Batches(context.Background()) {
		for _, s := range b.Samples {
			for _, name := range []string{"x", "y"} {
				h.Write(s[name].Bytes())
			}
			n++
		}
	}
	if err := l.Err(); err != nil {
		t.Fatal(err)
	}
	return h.Sum64(), n
}

// TestSparseBatchesMatchWholeReads: batches of a one-in-four view read in
// part are byte-identical to those of the same epoch read whole, shuffled,
// at 1, 2 and 8 workers. Thirteen 600-byte rows to a chunk of "y" make the
// rule read some of its chunks in part and some whole.
func TestSparseBatchesMatchWholeReads(t *testing.T) {
	ds := framesDataset(t, storage.NewMemory(), 512, 600)
	v := quarterView(ds)
	for _, workers := range []int{1, 2, 8} {
		opts := Options{BatchSize: 8, Workers: workers, Shuffle: true, Seed: 3, ShuffleBuffer: 32}
		got, n := viewHash(t, v, opts)
		opts.readWhole = true
		want, wn := viewHash(t, v, opts)
		if got != want || n != wn || n != v.Len() {
			t.Fatalf("workers=%d: sparse reads delivered %d rows hashing %#x, whole reads %d hashing %#x (view of %d)", workers, n, got, wn, want, v.Len())
		}
	}
}

// viewEpoch streams one epoch of the view sel makes of the dataset stored in
// mem, read through a fresh byte cache over a fresh origin counter, and
// returns what reached the origin.
func viewEpoch(t *testing.T, mem *storage.Memory, sel func(*core.Dataset) *view.View, opts Options) storage.CountingStats {
	t.Helper()
	ctx := context.Background()
	origin := storage.NewCounting(mem)
	ds, err := core.Open(ctx, storage.NewLRU(origin, 1<<30))
	if err != nil {
		t.Fatal(err)
	}
	origin.Reset()
	v := sel(ds)
	_, n := viewHash(t, v, opts)
	if n != v.Len() {
		t.Fatalf("delivered %d of %d rows", n, v.Len())
	}
	return origin.Snapshot()
}

// TestSparseViewReadsItsShare: a one-in-four view of frames beside 64-byte
// labels-like rows moves at most 35 % of the bytes whole reads of its chunks
// move, in no more origin requests; a view of every row makes exactly the
// requests and moves exactly the bytes it did before any chunk could be read
// in part.
func TestSparseViewReadsItsShare(t *testing.T) {
	mem := storage.NewMemory()
	framesDataset(t, mem, 512, 64)
	opts := Options{BatchSize: 8, Workers: 4, Shuffle: true, Seed: 3}
	whole := opts
	whole.readWhole = true

	sparse, full := viewEpoch(t, mem, quarterView, opts), viewEpoch(t, mem, quarterView, whole)
	if sparse.BytesRead > full.BytesRead*35/100 {
		t.Fatalf("one-in-four view moved %d bytes, %.0f %% of whole reads' %d", sparse.BytesRead, 100*float64(sparse.BytesRead)/float64(full.BytesRead), full.BytesRead)
	}
	if sparse.Requests() > full.Requests() || sparse.Gets+sparse.RangeGets != 0 {
		t.Fatalf("sparse reads made %+v, whole reads %+v", sparse, full)
	}

	all, before := viewEpoch(t, mem, view.All, opts), viewEpoch(t, mem, view.All, whole)
	if all != before {
		t.Fatalf("a view of every row made %+v, whole reads %+v", all, before)
	}
}

// TestCancelledSparseViewLeavesNoDebt: a view read in part and cancelled
// after its first batch leaves the byte cache owed nothing: its walk's
// Disown covers the ranges it claimed, landed or still on the wire.
func TestCancelledSparseViewLeavesNoDebt(t *testing.T) {
	ctx := context.Background()
	mem := storage.NewMemory()
	seed := framesDataset(t, mem, 1024, 600)
	capacity := int64(seed.Tensor("x").NumChunks()/8) * int64(seed.Tensor("x").Meta().Bounds.Target)
	cache := &claimCounter{LRU: storage.NewLRU(mem, capacity)}
	ds, err := core.Open(ctx, cache)
	if err != nil {
		t.Fatal(err)
	}
	run, cancel := context.WithCancel(ctx)
	defer cancel()
	v := quarterView(ds)
	l := New(v, Options{BatchSize: 8, Workers: 4, Shuffle: true, Seed: 21})
	rows := 0
	for b := range l.Batches(run) {
		rows += len(b.Samples)
		cancel()
	}
	if !errors.Is(l.Err(), context.Canceled) || rows >= v.Len() {
		t.Fatalf("cancelled loader delivered %d/%d rows, err %v", rows, v.Len(), l.Err())
	}
	cache.settled()
	if cache.ranges.Load() == 0 {
		t.Fatal("the loader claimed no ranges before its first batch")
	}
	if room := storage.Headroom(cache); room != capacity {
		t.Fatalf("after a cancelled epoch, headroom = %d, want the whole %d", room, capacity)
	}
}
