package core

import (
	"context"
	"testing"

	"repro/internal/chunk"
	"repro/internal/storage"
	"repro/internal/tensor"
)

// Benchmarks for the batch append fix: AppendBatch encodes the whole batch
// outside the locks and takes the tensor lock once, where the old path
// re-acquired the dataset lock (and re-checked writability) for every row.
// Run with:
//
//	go test ./internal/core -bench BenchmarkAppend -benchmem

const benchBatchRows = 64

func benchBatch(b *testing.B) *tensor.NDArray {
	b.Helper()
	vals := make([]float64, benchBatchRows*8)
	for i := range vals {
		vals[i] = float64(i % 251)
	}
	batch, err := tensor.FromFloat64s(tensor.Float64, []int{benchBatchRows, 8}, vals)
	if err != nil {
		b.Fatal(err)
	}
	return batch
}

func benchWriteDataset(b *testing.B) *Tensor {
	b.Helper()
	ctx := context.Background()
	// A raw in-memory provider keeps storage cost near zero, so the
	// benchmark isolates exactly what the batch path removes: the per-row
	// writability check and lock round-trip.
	store := storage.NewMemory()
	ds, err := Create(ctx, store, "bench")
	if err != nil {
		b.Fatal(err)
	}
	// Small chunk bounds so batches actually seal chunks and the write
	// path's storage cost is visible, not just in-memory buffering.
	bounds := chunk.Bounds{Min: 1 << 10, Target: 2 << 10, Max: 4 << 10}
	t, err := ds.CreateTensor(ctx, TensorSpec{Name: "x", Dtype: tensor.Float64, Bounds: bounds})
	if err != nil {
		b.Fatal(err)
	}
	return t
}

// BenchmarkAppendPerRow is the old AppendBatch behavior: one full Append —
// writability check, lock round-trip, encode — per row.
func BenchmarkAppendPerRow(b *testing.B) {
	ctx := context.Background()
	t := benchWriteDataset(b)
	batch := benchBatch(b)
	b.ReportMetric(benchBatchRows, "rows/op")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for r := 0; r < benchBatchRows; r++ {
			row, err := batch.Index(r)
			if err != nil {
				b.Fatal(err)
			}
			if err := t.Append(ctx, row); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkAppendBatch appends the same rows through the batched path: one
// writability check and one lock acquisition per batch.
func BenchmarkAppendBatch(b *testing.B) {
	ctx := context.Background()
	t := benchWriteDataset(b)
	batch := benchBatch(b)
	b.ReportMetric(benchBatchRows, "rows/op")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := t.AppendBatch(ctx, batch); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if err := t.ds.Flush(ctx); err != nil {
		b.Fatal(err)
	}
}
