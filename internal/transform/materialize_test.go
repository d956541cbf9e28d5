package transform

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/chunk"
	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/simnet"
	"repro/internal/storage"
	"repro/internal/tensor"
	"repro/internal/view"
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
	flushOnCleanup(t, ds)
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

// xyDataset is a 20-row dataset with an int32 column "x" (0..19) and a
// float64 column "y" (x/2), unflushed.
func xyDataset(t *testing.T) *core.Dataset {
	t.Helper()
	ctx := context.Background()
	ds, err := core.Create(ctx, storage.NewMemory(), "src")
	if err != nil {
		t.Fatal(err)
	}
	flushOnCleanup(t, ds)
	x, err := ds.CreateTensor(ctx, core.TensorSpec{Name: "x", Dtype: tensor.Int32, Bounds: smallBounds})
	if err != nil {
		t.Fatal(err)
	}
	y, err := ds.CreateTensor(ctx, core.TensorSpec{Name: "y", Dtype: tensor.Float64, Bounds: smallBounds})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := x.Append(ctx, tensor.Scalar(tensor.Int32, float64(i))); err != nil {
			t.Fatal(err)
		}
		if err := y.Append(ctx, tensor.Scalar(tensor.Float64, float64(i)*0.5)); err != nil {
			t.Fatal(err)
		}
	}
	return ds
}

// noise is an HxW RGB image of seeded random pixels: a lossy codec that ran
// twice over it would change its bytes and its pixels.
func noise(seed, h, w int) *tensor.NDArray {
	px := make([]byte, h*w*3)
	rand.New(rand.NewSource(int64(seed))).Read(px)
	arr, err := tensor.FromBytes(tensor.UInt8, []int{h, w, 3}, px)
	if err != nil {
		panic(err)
	}
	return arr
}

// TestMaterializeReadsEachChunkOnce: Materialize walks each identity column
// with one reader per worker, through the source's decoded-chunk cache, so
// with no cache in the storage chain it makes one Get per source chunk, not
// one per row.
func TestMaterializeReadsEachChunkOnce(t *testing.T) {
	const rows, chunks = 400, 13
	ctx := context.Background()
	store := storage.NewCounting(storage.NewMemory())
	ds := int32Dataset(t, store, rows, smallBounds)
	if n := ds.Tensor("x").NumChunks(); n != chunks {
		t.Fatalf("%d rows in %d chunks, want %d", rows, n, chunks)
	}
	store.Reset()
	out, err := Materialize(ctx, view.All(ds), storage.NewMemory(), "")
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

func TestMaterializeDensifiesSparseView(t *testing.T) {
	ds := xyDataset(t)
	ctx := context.Background()
	v := view.New(ds, []uint64{2, 4, 6, 8}, nil)
	dst := storage.NewMemory()
	out, err := Materialize(ctx, v, dst, "filtered")
	if err != nil {
		t.Fatal(err)
	}
	if out.Name() != "filtered" || out.NumRows() != 4 {
		t.Fatalf("materialized: name=%q rows=%d", out.Name(), out.NumRows())
	}
	for i, want := range []float64{2, 4, 6, 8} {
		arr, err := out.Tensor("x").At(ctx, uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		if val, _ := arr.Item(); val != want {
			t.Fatalf("materialized x[%d] = %v, want %v", i, val, want)
		}
	}
	// Lineage: one commit recorded.
	log, err := out.Log()
	if err != nil || len(log) != 1 {
		t.Fatalf("log = %v, %v", log, err)
	}
	// Metadata carried over.
	if out.Tensor("x").Dtype() != tensor.Int32 {
		t.Fatalf("materialized dtype = %v", out.Tensor("x").Dtype())
	}
}

// TestMaterializeInlinesResolvedLinks: materializing a view whose
// LinkedColumn resolves a link[image] tensor inlines the image.
func TestMaterializeInlinesResolvedLinks(t *testing.T) {
	ctx := context.Background()
	// External bucket with a PNG.
	bucket := storage.NewMemory()
	src := tensor.MustNew(tensor.UInt8, 5, 7, 3)
	for i := 0; i < src.Len(); i++ {
		src.SetAt(float64(i%255), i/(7*3), (i/3)%7, i%3)
	}
	codec, err := compress.SampleByName("png")
	if err != nil {
		t.Fatal(err)
	}
	png, err := codec.Encode(src.Bytes(), 5, 7, 3)
	if err != nil {
		t.Fatal(err)
	}
	bucket.Put(ctx, "imgs/0.png", png)

	ds, _ := core.Create(ctx, storage.NewMemory(), "linked")
	links, err := ds.CreateTensor(ctx, core.TensorSpec{Name: "images", Htype: "link[image]"})
	if err != nil {
		t.Fatal(err)
	}
	if err := links.AppendLink(ctx, "sim://ext/imgs/0.png"); err != nil {
		t.Fatal(err)
	}
	v := view.New(ds, []uint64{0}, []view.Column{view.LinkedColumn("images", links, resolverOver(bucket))})

	// Materializing the resolved view inlines the image.
	out, err := Materialize(ctx, v, storage.NewMemory(), "inlined")
	if err != nil {
		t.Fatal(err)
	}
	inlined, err := out.Tensor("images").At(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(inlined.Shape(), []int{5, 7, 3}) {
		t.Fatalf("inlined shape = %v", inlined.Shape())
	}
}

func TestMaterializeIdentityLinkCopiesURL(t *testing.T) {
	ctx := context.Background()
	ds, _ := core.Create(ctx, storage.NewMemory(), "links")
	links, _ := ds.CreateTensor(ctx, core.TensorSpec{Name: "ext", Htype: "link[image]"})
	links.AppendLink(ctx, "sim://b/k.jpg")
	v := view.New(ds, []uint64{0}, []view.Column{{Name: "ext", Source: "ext"}})
	out, err := Materialize(ctx, v, storage.NewMemory(), "")
	if err != nil {
		t.Fatal(err)
	}
	url, err := out.Tensor("ext").LinkAt(ctx, 0)
	if err != nil || url != "sim://b/k.jpg" {
		t.Fatalf("copied link = %q, %v", url, err)
	}
}

// BenchmarkMaterialize materializes one int32 column, whose ns/row stays
// flat as the rows per chunk grow, and one column of 32×32 JPEGs.
func BenchmarkMaterialize(b *testing.B) {
	for _, n := range []int{4096, 65536} {
		b.Run(fmt.Sprintf("rows=%d", n), func(b *testing.B) {
			benchMaterialize(b, int32Dataset(b, storage.NewMemory(), n, chunk.DefaultBounds()), n)
		})
	}
	b.Run("jpeg/rows=512", func(b *testing.B) {
		const n = 512
		ctx := context.Background()
		ds, err := core.Create(ctx, storage.NewMemory(), "src")
		if err != nil {
			b.Fatal(err)
		}
		x, err := ds.CreateTensor(ctx, core.TensorSpec{Name: "x", Htype: "image", SampleCompression: "jpeg"})
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if err := x.Append(ctx, noise(i, 32, 32)); err != nil {
				b.Fatal(err)
			}
		}
		if err := ds.Flush(ctx); err != nil {
			b.Fatal(err)
		}
		benchMaterialize(b, ds, n)
	})
}

func benchMaterialize(b *testing.B, ds *core.Dataset, rows int) {
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Materialize(context.Background(), view.All(ds), storage.NewMemory(), ""); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
}

// BenchmarkMaterializeLanes measures Materialize of a sparse view onto
// simulated same-region S3. Materialize creates its destination, so it always
// runs the default 8 flush lanes; the GOMAXPROCS side repeats a serial row
// loop for the view's stored columns into a destination set through
// SetWriteOptions, and the same loop at the default lanes is its baseline.
func BenchmarkMaterializeLanes(b *testing.B) {
	ctx := context.Background()
	ds, err := core.Create(ctx, storage.NewMemory(), "src")
	if err != nil {
		b.Fatal(err)
	}
	x, err := ds.CreateTensor(ctx, core.TensorSpec{Name: "x", Dtype: tensor.Int32, Bounds: smallBounds})
	if err != nil {
		b.Fatal(err)
	}
	y, err := ds.CreateTensor(ctx, core.TensorSpec{Name: "y", Dtype: tensor.Float64, Bounds: smallBounds})
	if err != nil {
		b.Fatal(err)
	}
	rows := make([]uint64, 0, 1024)
	for i := 0; i < 2048; i++ {
		if err := x.Append(ctx, tensor.Scalar(tensor.Int32, float64(i))); err != nil {
			b.Fatal(err)
		}
		if err := y.Append(ctx, tensor.Scalar(tensor.Float64, float64(i)*0.5)); err != nil {
			b.Fatal(err)
		}
		if i%2 == 0 {
			rows = append(rows, uint64(i))
		}
	}
	if err := ds.Flush(ctx); err != nil {
		b.Fatal(err)
	}
	v := view.New(ds, rows, nil)
	newStore := func() storage.Provider { return storage.NewSimObjectStore(simnet.S3SameRegion()) }

	b.Run("materialize-default", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			dst := newStore()
			b.StartTimer()
			if _, err := Materialize(ctx, v, dst, ""); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, lanes := range []int{0, runtime.GOMAXPROCS(0)} {
		name := "loop-default"
		if lanes > 0 {
			name = fmt.Sprintf("loop-gomaxprocs-%d", lanes)
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				dst := newStore()
				b.StartTimer()
				out, err := core.Create(ctx, dst, "src-view")
				if err != nil {
					b.Fatal(err)
				}
				if lanes > 0 {
					if err := out.SetWriteOptions(core.WriteOptions{FlushWorkers: lanes}); err != nil {
						b.Fatal(err)
					}
				}
				for _, c := range v.Columns() {
					src := ds.Tensor(c.Source)
					m := src.Meta()
					spec := core.TensorSpec{Name: c.Name, Htype: m.Htype, Dtype: src.Dtype(),
						SampleCompression: m.SampleCompression, ChunkCompression: m.ChunkCompression, Bounds: m.Bounds}
					if _, err := out.CreateTensor(ctx, spec); err != nil {
						b.Fatal(err)
					}
				}
				for row := 0; row < v.Len(); row++ {
					for _, c := range v.Columns() {
						arr, err := v.At(ctx, row, c.Name)
						if err != nil {
							b.Fatal(err)
						}
						if err := out.Tensor(c.Name).Append(ctx, arr); err != nil {
							b.Fatal(err)
						}
					}
				}
				if _, err := out.Commit(ctx, "materialized"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
