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

	variedOnce sync.Once
	variedDS   *core.Dataset
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

// variedDataset builds, once per test binary, benchRows raw uint8 images
// whose shape changes on every row ([8+row%5, 8, 3]): the variable-size
// images of a typical dataset, where every row is a shape run of its own.
func variedDataset(b *testing.B) *core.Dataset {
	variedOnce.Do(func() {
		ctx := context.Background()
		ds, err := core.Create(ctx, storage.NewMemory(), "varied")
		if err != nil {
			b.Fatal(err)
		}
		images, err := ds.CreateTensor(ctx, core.TensorSpec{Name: "images", Dtype: tensor.UInt8, ChunkCompression: "none"})
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < benchRows; i++ {
			if err := images.Append(ctx, tensor.MustNew(tensor.UInt8, 8+i%5, 8, 3)); err != nil {
				b.Fatal(err)
			}
		}
		if err := ds.Flush(ctx); err != nil {
			b.Fatal(err)
		}
		variedDS = ds
	})
	if variedDS == nil {
		b.Fatal("benchmark dataset failed to build")
	}
	return variedDS
}

func benchQuery(b *testing.B, src string) {
	benchQueryOn(b, benchDataset(b), src)
}

func benchQueryOn(b *testing.B, ds *core.Dataset, src string) {
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

// BenchmarkQueryPush is lakebench's Q_push: a shape-only WHERE, answered
// from the shape encoder.
func BenchmarkQueryPush(b *testing.B) {
	benchQuery(b, "SELECT * FROM bench WHERE SHAPE(frames)[0] == 74")
}

// BenchmarkQueryPushVaried is Q_push over images whose shape changes on
// every row, so no two rows share a shape run.
func BenchmarkQueryPushVaried(b *testing.B) {
	benchQueryOn(b, variedDataset(b), "SELECT * FROM varied WHERE SHAPE(images)[0] == 10")
}

// BenchmarkQueryGroup is lakebench's Q_group.
func BenchmarkQueryGroup(b *testing.B) {
	benchQuery(b, "SELECT * FROM bench GROUP BY labels")
}

// BenchmarkScanMeanRaw is lakebench's Q_scan over stream_s3's raw frames.
func BenchmarkScanMeanRaw(b *testing.B) {
	benchQuery(b, "SELECT * FROM bench WHERE MEAN(frames) > 127.5")
}
