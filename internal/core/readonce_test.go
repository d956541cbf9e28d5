package core

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/storage"
	"repro/internal/tensor"
)

// readOnceRows int32 scalars fill readOnceChunks smallBounds chunks.
const (
	readOnceRows   = 400
	readOnceChunks = 13
)

// appendInt32Rows appends the int32 scalars 0..n-1 to x.
func appendInt32Rows(t testing.TB, x *Tensor, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := x.Append(context.Background(), tensor.Scalar(tensor.Int32, float64(i))); err != nil {
			t.Fatal(err)
		}
	}
}

// checkRows fails unless row i of x holds i, for every row.
func checkRows(t *testing.T, x *Tensor, n int) {
	t.Helper()
	if x.Len() != uint64(n) {
		t.Fatalf("%d rows, want %d", x.Len(), n)
	}
	for i := 0; i < n; i++ {
		if got := readInt(t, x, uint64(i)); got != i {
			t.Fatalf("row %d holds %d", i, got)
		}
	}
}

// TestRechunkReadsEachChunkOnce: Rechunk keeps the source chunk it decoded,
// so with no cache in the chain it makes one Get per source chunk, not one
// per row.
func TestRechunkReadsEachChunkOnce(t *testing.T) {
	ctx := context.Background()
	store := storage.NewCounting(storage.NewMemory())
	ds, err := Create(ctx, store, "rechunk")
	if err != nil {
		t.Fatal(err)
	}
	x, err := ds.CreateTensor(ctx, TensorSpec{Name: "x", Dtype: tensor.Int32, Bounds: smallBounds})
	if err != nil {
		t.Fatal(err)
	}
	appendInt32Rows(t, x, readOnceRows)
	if err := ds.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if n := x.NumChunks(); n != readOnceChunks {
		t.Fatalf("%d rows in %d chunks, want %d", readOnceRows, n, readOnceChunks)
	}
	store.Reset()
	if err := x.Rechunk(ctx); err != nil {
		t.Fatal(err)
	}
	if gets := store.Snapshot().Gets; gets != readOnceChunks {
		t.Fatalf("Rechunk made %d Gets for %d chunks", gets, readOnceChunks)
	}
	checkRows(t, x, readOnceRows)
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

// TestMergeReadsEachSourceChunkOnce: Merge walks the source branch's appended
// rows with one reader, so with no cache in the chain it makes one Get per
// source chunk, not one per row. Merge also reads version state, so only
// chunk Gets are counted.
func TestMergeReadsEachSourceChunkOnce(t *testing.T) {
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
	if n := ds.Tensor("x").NumChunks(); n != readOnceChunks {
		t.Fatalf("%d rows in %d chunks, want %d", readOnceRows, n, readOnceChunks)
	}
	if err := ds.Checkout(ctx, "main", false); err != nil {
		t.Fatal(err)
	}
	store.n.Store(0)
	if err := ds.Merge(ctx, "dev", MergeTheirs); err != nil {
		t.Fatal(err)
	}
	if gets := store.n.Load(); gets != readOnceChunks {
		t.Fatalf("Merge made %d chunk Gets for %d source chunks", gets, readOnceChunks)
	}
	checkRows(t, ds.Tensor("x"), readOnceRows)
}

// BenchmarkRechunk re-packs one int32 column; ns/row stays flat as the rows
// per chunk grow.
func BenchmarkRechunk(b *testing.B) {
	for _, n := range []int{4096, 65536} {
		b.Run(fmt.Sprintf("rows=%d", n), func(b *testing.B) {
			ctx := context.Background()
			ds, err := Create(ctx, storage.NewMemory(), "bench")
			if err != nil {
				b.Fatal(err)
			}
			x, err := ds.CreateTensor(ctx, TensorSpec{Name: "x", Dtype: tensor.Int32})
			if err != nil {
				b.Fatal(err)
			}
			appendInt32Rows(b, x, n)
			if err := ds.Flush(ctx); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := x.Rechunk(ctx); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/row")
		})
	}
}

// BenchmarkTensorAt is a point read, Tensor.At, of a row whose chunk the
// handle has decoded already: what one row costs a caller that keeps no
// reader of its own.
func BenchmarkTensorAt(b *testing.B) {
	for _, n := range []int{1024, 8192} {
		b.Run(fmt.Sprintf("rows=%d", n), func(b *testing.B) {
			ctx := context.Background()
			ds, err := Create(ctx, storage.NewMemory(), "bench")
			if err != nil {
				b.Fatal(err)
			}
			x, err := ds.CreateTensor(ctx, TensorSpec{Name: "x", Dtype: tensor.Int32})
			if err != nil {
				b.Fatal(err)
			}
			appendInt32Rows(b, x, n)
			if err := ds.Flush(ctx); err != nil {
				b.Fatal(err)
			}
			if _, err := x.At(ctx, 0); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := x.At(ctx, uint64(i%n)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
