package core

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/chunk"
	"repro/internal/simnet"
	"repro/internal/storage"
	"repro/internal/tensor"
)

// Publish-path benchmarks. Run with:
//
//	go test ./internal/core -run '^$' -bench 'PublishRounds|CommitAtDepth'

// BenchmarkPublishRounds times one Commit over real-time simulated S3 after
// appends sealed k chunks of 256 KiB at the default 8 upload lanes: the
// uploads the appends started overlap them, the rest wait for a lane when the
// Commit starts, and the tail chunk is sealed by the Commit itself. A publish
// that sends every upload still waiting at once takes about two round trips
// (the uploads, then the root), one that leaves them to the lanes one more
// per wave. ms/op is the Commit alone; Puts/op counts every Put of an
// iteration: k chunks, the frozen state object and the root.
func BenchmarkPublishRounds(b *testing.B) {
	const rowBytes = 16 << 10
	bounds := chunk.Bounds{Min: 128 << 10, Target: 256 << 10, Max: 512 << 10}
	rowsPerChunk := bounds.Target / rowBytes
	row, err := tensor.New(tensor.UInt8, rowBytes)
	if err != nil {
		b.Fatal(err)
	}
	for _, k := range []int{4, 12, 24} {
		b.Run(fmt.Sprintf("chunks=%d", k), func(b *testing.B) {
			ctx := context.Background()
			profile := simnet.S3SameRegion()
			profile.TimeScale = 1
			counting := storage.NewCounting(storage.NewSim(storage.NewMemory(), profile))
			ds, err := Create(ctx, counting, "rounds")
			if err != nil {
				b.Fatal(err)
			}
			if err := ds.SetWriteOptions(WriteOptions{FlushWorkers: 8}); err != nil {
				b.Fatal(err)
			}
			tr, err := ds.CreateTensor(ctx, TensorSpec{Name: "frames", Dtype: tensor.UInt8, Bounds: bounds})
			if err != nil {
				b.Fatal(err)
			}
			puts := counting.Snapshot().Puts
			var commit time.Duration
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				for r := 0; r < k*rowsPerChunk; r++ {
					if err := tr.Append(ctx, row); err != nil {
						b.Fatal(err)
					}
				}
				b.StartTimer()
				start := time.Now()
				if _, err := ds.Commit(ctx, "step"); err != nil {
					b.Fatal(err)
				}
				commit += time.Since(start)
			}
			b.StopTimer()
			b.ReportMetric(float64(commit.Microseconds())/1e3/float64(b.N), "ms/op")
			b.ReportMetric(float64(counting.Snapshot().Puts-puts)/float64(b.N), "Puts/op")
		})
	}
}

// BenchmarkCommitAtDepth times one Commit of one int32 row on top of a
// history of depth commits, over a counting in-memory store, and reports the
// bytes it Puts: the root re-serialises the whole version tree, so both grow
// with depth. Every iteration commits onto a fresh copy of the same history,
// so the depth does not drift with b.N.
func BenchmarkCommitAtDepth(b *testing.B) {
	ctx := context.Background()
	for _, depth := range []int{10, 1000} {
		var history *storage.Memory
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			if history == nil {
				history = historyOfDepth(b, depth)
			}
			var written int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				counting := storage.NewCounting(copyStore(b, history))
				ds, err := Open(ctx, counting)
				if err != nil {
					b.Fatal(err)
				}
				before := counting.Snapshot().BytesWritten
				b.StartTimer()
				if err := ds.Tensor("x").Append(ctx, tensor.Scalar(tensor.Int32, 1)); err != nil {
					b.Fatal(err)
				}
				if _, err := ds.Commit(ctx, "step"); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				written += counting.Snapshot().BytesWritten - before
			}
			b.ReportMetric(float64(written)/float64(b.N), "B_put/op")
		})
	}
}

// historyOfDepth is a dataset of one int32 tensor after depth commits of one
// row each.
func historyOfDepth(b *testing.B, depth int) *storage.Memory {
	b.Helper()
	ctx := context.Background()
	mem := storage.NewMemory()
	ds, err := Create(ctx, mem, "depth")
	if err != nil {
		b.Fatal(err)
	}
	tr, err := ds.CreateTensor(ctx, TensorSpec{Name: "x", Dtype: tensor.Int32})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < depth; i++ {
		if err := tr.Append(ctx, tensor.Scalar(tensor.Int32, float64(i))); err != nil {
			b.Fatal(err)
		}
		if _, err := ds.Commit(ctx, "step"); err != nil {
			b.Fatal(err)
		}
	}
	return mem
}

// copyStore copies every object of src into a new in-memory store.
func copyStore(b *testing.B, src *storage.Memory) *storage.Memory {
	b.Helper()
	ctx := context.Background()
	keys, err := src.List(ctx, "")
	if err != nil {
		b.Fatal(err)
	}
	dst := storage.NewMemory()
	for _, key := range keys {
		data, err := src.Get(ctx, key)
		if err != nil {
			b.Fatal(err)
		}
		if err := dst.Put(ctx, key, data); err != nil {
			b.Fatal(err)
		}
	}
	return dst
}
