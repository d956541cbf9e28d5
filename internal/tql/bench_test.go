package tql

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/chunk"
	"repro/internal/core"
	"repro/internal/storage"
	"repro/internal/tensor"
)

// benchRows is the row count of the micro-benchmark dataset: lakebench's
// D_img size.
const benchRows = 4000

var (
	benchOnce sync.Once
	benchDS   *core.Dataset
)

// benchDataset builds, once per test binary, an in-memory dataset shaped
// like lakebench's: int32 class labels in [0, 1000) (lz4 chunks, one chunk
// for all 4 000 rows) and raw 74x74x3 uint8 frames (uncompressed 256 KiB
// chunks of 16 rows), both at lakebench's 128/256/512 KiB chunk bounds.
func benchDataset(b *testing.B) *core.Dataset {
	benchOnce.Do(func() {
		ctx := context.Background()
		bounds := chunk.Bounds{Min: 128 << 10, Target: 256 << 10, Max: 512 << 10}
		ds, err := core.Create(ctx, storage.NewMemory(), "bench")
		if err != nil {
			b.Fatal(err)
		}
		labels, err := ds.CreateTensor(ctx, core.TensorSpec{Name: "labels", Htype: "class_label", Bounds: bounds})
		if err != nil {
			b.Fatal(err)
		}
		frames, err := ds.CreateTensor(ctx, core.TensorSpec{Name: "frames", Dtype: tensor.UInt8, ChunkCompression: "none", Bounds: bounds})
		if err != nil {
			b.Fatal(err)
		}
		rng := rand.New(rand.NewSource(1))
		frame := tensor.MustNew(tensor.UInt8, 74, 74, 3)
		for i := 0; i < benchRows; i++ {
			if err := labels.Append(ctx, tensor.Scalar(tensor.Int32, float64(rng.Intn(1000)))); err != nil {
				b.Fatal(err)
			}
			rng.Read(frame.Bytes())
			if err := frames.Append(ctx, frame); err != nil {
				b.Fatal(err)
			}
		}
		if err := ds.Flush(ctx); err != nil {
			b.Fatal(err)
		}
		benchDS = ds
	})
	if benchDS == nil {
		b.Fatal("benchmark dataset failed to build")
	}
	return benchDS
}

func benchQuery(b *testing.B, src string) {
	ds := benchDataset(b)
	q, err := Parse(src)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ExecuteWith(ctx, ds, q, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryFilter is lakebench's Q_filter.
func BenchmarkQueryFilter(b *testing.B) {
	benchQuery(b, "SELECT * FROM bench WHERE labels < 100 ORDER BY labels LIMIT 20")
}

// BenchmarkQueryGroup is lakebench's Q_group.
func BenchmarkQueryGroup(b *testing.B) {
	benchQuery(b, "SELECT * FROM bench GROUP BY labels")
}

// BenchmarkScanMeanRaw is lakebench's Q_scan over stream_s3's raw frames.
func BenchmarkScanMeanRaw(b *testing.B) {
	benchQuery(b, "SELECT * FROM bench WHERE MEAN(frames) > 127.5")
}
