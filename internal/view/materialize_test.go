package view

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/chunk"
	"repro/internal/core"
	"repro/internal/storage"
	"repro/internal/tensor"
)

// int32Dataset is a flushed dataset over store with one int32 column "x"
// holding 0..n-1 in chunks of the given bounds.
func int32Dataset(t testing.TB, store storage.Provider, n int, bounds chunk.Bounds) *core.Dataset {
	t.Helper()
	ctx := context.Background()
	ds, err := core.Create(ctx, store, "src")
	if err != nil {
		t.Fatal(err)
	}
	x, err := ds.CreateTensor(ctx, core.TensorSpec{Name: "x", Dtype: tensor.Int32, Bounds: bounds})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := x.Append(ctx, tensor.Scalar(tensor.Int32, float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := ds.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	return ds
}

// TestMaterializeReadsEachChunkOnce: Materialize walks each identity column
// with one reader, so with no cache in the chain it makes one Get per source
// chunk, not one per row.
func TestMaterializeReadsEachChunkOnce(t *testing.T) {
	const rows, chunks = 400, 13
	ctx := context.Background()
	store := storage.NewCounting(storage.NewMemory())
	ds := int32Dataset(t, store, rows, smallBounds)
	if n := ds.Tensor("x").NumChunks(); n != chunks {
		t.Fatalf("%d rows in %d chunks, want %d", rows, n, chunks)
	}
	store.Reset()
	out, err := Materialize(ctx, All(ds), storage.NewMemory(), MaterializeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if gets := store.Snapshot().Gets; gets != chunks {
		t.Fatalf("Materialize made %d Gets for %d source chunks", gets, chunks)
	}
	for i := 0; i < rows; i++ {
		arr, err := out.Tensor("x").At(ctx, uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		if v, _ := arr.Item(); v != float64(i) {
			t.Fatalf("materialized row %d holds %v", i, v)
		}
	}
}

// BenchmarkMaterialize materializes one int32 column; ns/row stays flat as
// the rows per chunk grow.
func BenchmarkMaterialize(b *testing.B) {
	for _, n := range []int{4096, 65536} {
		b.Run(fmt.Sprintf("rows=%d", n), func(b *testing.B) {
			ds := int32Dataset(b, storage.NewMemory(), n, chunk.DefaultBounds())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Materialize(context.Background(), All(ds), storage.NewMemory(), MaterializeOptions{}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/row")
		})
	}
}
