package dataloader

import (
	"bytes"
	"context"
	"image"
	"image/jpeg"
	"math/rand"
	"testing"

	"repro/internal/chunk"
	"repro/internal/core"
	"repro/internal/storage"
	"repro/internal/tensor"
)

// imageDataset builds an in-memory D_img-like dataset of n rows: "images",
// 64×64 RGB JPEGs stored verbatim through AppendEncoded, "masks", their
// 64×64 uint8 segmentation masks in lz4 chunks, "labels" and 4×4 float32
// "boxes", at 128, 256 and 512 KiB chunk bounds. It is read through a 1 GiB
// byte cache, as lakebench's train_decode reads D_img: a hit hands out the
// cached object, where bare storage.Memory would copy it on every Get.
func imageDataset(b *testing.B, n int) *core.Dataset {
	b.Helper()
	ctx := context.Background()
	ds, err := core.Create(ctx, storage.NewLRU(storage.NewMemory(), 1<<30), "dimg")
	if err != nil {
		b.Fatal(err)
	}
	bounds := chunk.Bounds{Min: 128 << 10, Target: 256 << 10, Max: 512 << 10}
	specs := []core.TensorSpec{
		{Name: "images", Htype: "image", SampleCompression: "jpeg", Bounds: bounds},
		{Name: "masks", Dtype: tensor.UInt8, ChunkCompression: "lz4", Bounds: bounds},
		{Name: "labels", Htype: "class_label", Bounds: bounds},
		{Name: "boxes", Htype: "bbox", Bounds: bounds},
	}
	ts := make([]*core.Tensor, len(specs))
	for i, s := range specs {
		if ts[i], err = ds.CreateTensor(ctx, s); err != nil {
			b.Fatal(err)
		}
	}
	const side = 64
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < n; i++ {
		img := image.NewRGBA(image.Rect(0, 0, side, side))
		mask := tensor.MustNew(tensor.UInt8, side, side)
		base := [3]int{rng.Intn(256), rng.Intn(256), rng.Intn(256)}
		for y := 0; y < side; y++ {
			for x := 0; x < side; x++ {
				p := img.PixOffset(x, y)
				for c := range base {
					img.Pix[p+c] = byte(base[c] + x + y + rng.Intn(8))
				}
				img.Pix[p+3] = 255
			}
		}
		for k := range 2 + rng.Intn(3) {
			cx, cy, r := rng.Intn(side), rng.Intn(side), 5+rng.Intn(14)
			for y := 0; y < side; y++ {
				for x := 0; x < side; x++ {
					if (x-cx)*(x-cx)+(y-cy)*(y-cy) < r*r {
						mask.Bytes()[y*side+x] = byte(k + 1)
					}
				}
			}
		}
		var buf bytes.Buffer
		if err := jpeg.Encode(&buf, img, nil); err != nil {
			b.Fatal(err)
		}
		if err := ts[0].AppendEncoded(ctx, buf.Bytes()); err != nil {
			b.Fatal(err)
		}
		if err := ts[1].Append(ctx, mask); err != nil {
			b.Fatal(err)
		}
		if err := ts[2].Append(ctx, tensor.Scalar(tensor.Int32, float64(rng.Intn(1000)))); err != nil {
			b.Fatal(err)
		}
		coords := make([]float64, 16)
		for j := range coords {
			coords[j] = float64(rng.Intn(side))
		}
		box, err := tensor.FromFloat64s(tensor.Float32, []int{4, 4}, coords)
		if err != nil {
			b.Fatal(err)
		}
		if err := ts[3].Append(ctx, box); err != nil {
			b.Fatal(err)
		}
	}
	if err := ds.Flush(ctx); err != nil {
		b.Fatal(err)
	}
	return ds
}

// BenchmarkFirstBatch is the time to the first batch of a shuffled epoch
// over an in-memory image dataset: planning the epoch, then fetching and
// decoding what the first 32 rows need, through a fresh loader (and so a
// cold node cache) each iteration. inflated_B/op is the decoded bytes of the
// lz4 blocks the loader had inflated when the first batch arrived.
func BenchmarkFirstBatch(b *testing.B) {
	ds := imageDataset(b, 4000)
	var inflated int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		l := ForDataset(ds, Options{BatchSize: 32, Shuffle: true, Seed: int64(i)})
		batches := l.Batches(ctx)
		if _, ok := <-batches; !ok {
			b.Fatal(l.Err())
		}
		b.StopTimer()
		inflated += l.Cache().Stats().Inflated
		cancel()
		for range batches {
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(inflated)/float64(b.N), "inflated_B/op")
}

// BenchmarkChunkOpen is, per tensor of the first-batch dataset, reading
// one stored chunk and opening it (Tensor.ReadChunk, past every decoded-chunk
// cache), then reading one sample from its middle: what a cold first batch
// pays for each chunk it touches.
func BenchmarkChunkOpen(b *testing.B) {
	ctx := context.Background()
	ds := imageDataset(b, 4000)
	for _, name := range []string{"images", "masks", "labels", "boxes"} {
		t := ds.Tensor(name)
		span := t.ChunkSpans()[0]
		mid := int(span.Last-span.First) / 2
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c, err := t.ReadChunk(ctx, span.ChunkID)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := c.Sample(mid); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
