package core

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/tensor"
)

func TestDatasetAccessors(t *testing.T) {
	ctx := context.Background()
	ds, store := newTestDataset(t)
	if ds.Version() == "" {
		t.Fatal("empty version id")
	}
	if ds.Store() != store {
		t.Fatal("Store accessor mismatch")
	}
	a, _ := ds.CreateTensor(ctx, TensorSpec{Name: "a", Dtype: tensor.Int32, Bounds: smallBounds})
	b, _ := ds.CreateTensor(ctx, TensorSpec{Name: "b", Dtype: tensor.Int32, Bounds: smallBounds})
	appendInts(t, a, 1, 2, 3)
	appendInts(t, b, 1)
	if ds.NumRows() != 1 {
		t.Fatalf("NumRows = %d (min across tensors)", ds.NumRows())
	}
	if ds.MaxLength() != 3 {
		t.Fatalf("MaxLength = %d", ds.MaxLength())
	}
	if a.Name() != "a" {
		t.Fatalf("Name = %q", a.Name())
	}
	if a.Htype().Base.Name != "generic" {
		t.Fatalf("Htype = %v", a.Htype())
	}
	if got := ds.Branches(); !reflect.DeepEqual(got, []string{"main"}) {
		t.Fatalf("Branches = %v", got)
	}
}

func TestAppendBatch(t *testing.T) {
	ctx := context.Background()
	ds, _ := newTestDataset(t)
	x, _ := ds.CreateTensor(ctx, TensorSpec{Name: "x", Dtype: tensor.Int32, Bounds: smallBounds})
	batch, _ := tensor.FromFloat64s(tensor.Int32, []int{4, 2}, []float64{1, 2, 3, 4, 5, 6, 7, 8})
	if err := x.AppendBatch(ctx, batch); err != nil {
		t.Fatal(err)
	}
	if x.Len() != 4 {
		t.Fatalf("len = %d", x.Len())
	}
	arr, _ := x.At(ctx, 2)
	if !reflect.DeepEqual(arr.Float64s(), []float64{5, 6}) {
		t.Fatalf("x[2] = %v", arr.Float64s())
	}
	if err := x.AppendBatch(ctx, tensor.Scalar(tensor.Int32, 1)); err == nil {
		t.Fatal("0-d batch should error")
	}
}

func TestPadToPublic(t *testing.T) {
	ctx := context.Background()
	ds, _ := newTestDataset(t)
	x, _ := ds.CreateTensor(ctx, TensorSpec{Name: "x", Dtype: tensor.Int32, Bounds: smallBounds})
	if err := x.PadTo(ctx, 5); err != nil {
		t.Fatal(err)
	}
	if x.Len() != 5 {
		t.Fatalf("len = %d", x.Len())
	}
	// Idempotent for smaller n.
	if err := x.PadTo(ctx, 3); err != nil {
		t.Fatal(err)
	}
	if x.Len() != 5 {
		t.Fatalf("len shrank to %d", x.Len())
	}
}

func TestReplaceTiledSample(t *testing.T) {
	ctx := context.Background()
	ds, _ := newTestDataset(t)
	tr, _ := ds.CreateTensor(ctx, TensorSpec{Name: "big", Dtype: tensor.Int32, Bounds: smallBounds})
	mk := func(fill float64) *tensor.NDArray {
		vals := make([]float64, 400)
		for i := range vals {
			vals[i] = fill
		}
		a, _ := tensor.FromFloat64s(tensor.Int32, []int{20, 20}, vals)
		return a
	}
	if err := tr.Append(ctx, mk(1)); err != nil {
		t.Fatal(err)
	}
	if tr.tileEnc.Len() != 1 {
		t.Fatal("sample not tiled")
	}
	// In-place replace of a tiled sample re-tiles it.
	if err := tr.SetAt(ctx, 0, mk(9)); err != nil {
		t.Fatal(err)
	}
	got, err := tr.At(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := got.At(10, 10); v != 9 {
		t.Fatalf("replaced tiled sample value = %v", v)
	}
	if !reflect.DeepEqual(got.Shape(), []int{20, 20}) {
		t.Fatalf("shape = %v", got.Shape())
	}
}

func TestSliceErrorsAndEdges(t *testing.T) {
	ctx := context.Background()
	ds, _ := newTestDataset(t)
	seq, _ := ds.CreateTensor(ctx, TensorSpec{Name: "s", Htype: "sequence[generic]", Dtype: tensor.Int32, Bounds: smallBounds})
	seq.AppendSequence(ctx, []*tensor.NDArray{tensor.Scalar(tensor.Int32, 1)})
	if _, err := seq.Slice(ctx, 0, nil); err == nil {
		t.Fatal("Slice on sequence tensor should error")
	}

	x, _ := ds.CreateTensor(ctx, TensorSpec{Name: "x", Dtype: tensor.Int32, Bounds: smallBounds})
	arr, _ := tensor.FromFloat64s(tensor.Int32, []int{4, 4}, make([]float64, 16))
	x.Append(ctx, arr)
	ds.Flush(ctx)
	// Multi-axis slice on a flushed raw sample (slow path).
	got, err := x.Slice(ctx, 0, []tensor.Range{{Start: 1, Stop: 3}, {Start: 0, Stop: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Shape(), []int{2, 2}) {
		t.Fatalf("slice shape = %v", got.Shape())
	}
	// A write-buffered sample slices the same way, on one axis or two.
	if err := x.Append(ctx, arr); err != nil {
		t.Fatal(err)
	}
	for _, region := range [][]tensor.Range{{{Start: 1, Stop: 3}}, {{Start: 1, Stop: 3}, {Start: 0, Stop: 2}}} {
		got, err := x.Slice(ctx, 1, region)
		if want, _ := arr.Slice(region...); err != nil || !got.Equal(want) {
			t.Fatalf("buffered slice %v = %v, %v", region, got, err)
		}
	}
	// Invalid ranges propagate.
	if _, err := x.Slice(ctx, 0, []tensor.Range{{Start: 5, Stop: 2}}); err == nil {
		t.Fatal("invalid range should error")
	}
	// Out-of-bounds sample.
	if _, err := x.Slice(ctx, 99, nil); err == nil {
		t.Fatal("missing sample should error")
	}
}

func TestLZ4ChunkCompressedTensorRoundTrip(t *testing.T) {
	// Chunk compression path end to end: write, flush, reopen, read.
	ctx := context.Background()
	ds, store := newTestDataset(t)
	m, err := ds.CreateTensor(ctx, TensorSpec{
		Name: "mask", Htype: "binary_mask", Dtype: tensor.UInt8, Bounds: smallBounds,
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Meta().ChunkCompression != "lz4" {
		t.Fatalf("chunk compression = %q", m.Meta().ChunkCompression)
	}
	for i := 0; i < 40; i++ {
		mask := tensor.MustNew(tensor.UInt8, 8, 8)
		for k := 0; k < i%64; k++ {
			mask.Bytes()[k] = 1
		}
		if err := m.Append(ctx, mask); err != nil {
			t.Fatal(err)
		}
	}
	if err := ds.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	back, err := Open(ctx, store)
	if err != nil {
		t.Fatal(err)
	}
	got, err := back.Tensor("mask").At(ctx, 10)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := got.At(0, 5); v != 1 {
		t.Fatalf("mask[10][0,5] = %v", v)
	}
	if v, _ := got.At(7, 7); v != 0 {
		t.Fatalf("mask[10][7,7] = %v", v)
	}
}

func TestMergeCreatesTensorFromBranch(t *testing.T) {
	ctx := context.Background()
	ds, _ := newTestDataset(t)
	a, _ := ds.CreateTensor(ctx, TensorSpec{Name: "a", Dtype: tensor.Int32, Bounds: smallBounds})
	appendInts(t, a, 1)
	ds.Commit(ctx, "base")

	ds.Checkout(ctx, "feature", true)
	nb, err := ds.CreateTensor(ctx, TensorSpec{Name: "extra", Dtype: tensor.Int32, Bounds: smallBounds})
	if err != nil {
		t.Fatal(err)
	}
	appendInts(t, nb, 7, 8)
	ds.Commit(ctx, "adds extra tensor")

	ds.Checkout(ctx, "main", false)
	if ds.Tensor("extra") != nil {
		t.Fatal("extra should not exist on main yet")
	}
	if err := ds.Merge(ctx, "feature", MergeTheirs); err != nil {
		t.Fatal(err)
	}
	ex := ds.Tensor("extra")
	if ex == nil || ex.Len() != 2 {
		t.Fatalf("merged tensor = %v", ex)
	}
	if got := readInt(t, ex, 1); got != 8 {
		t.Fatalf("extra[1] = %d", got)
	}
}

func TestReadAtVersionOfBranchHead(t *testing.T) {
	ctx := context.Background()
	ds, _ := newTestDataset(t)
	x, _ := ds.CreateTensor(ctx, TensorSpec{Name: "x", Dtype: tensor.Int32, Bounds: smallBounds})
	appendInts(t, x, 1, 2)
	ds.Flush(ctx)
	// Reading "main" (a branch ref) through ReadAtVersion yields a
	// detached twin at the mutable head.
	twin, err := ds.ReadAtVersion(ctx, "main")
	if err != nil {
		t.Fatal(err)
	}
	if twin.Branch() != "" || twin.Tensor("x").Len() != 2 {
		t.Fatalf("twin = branch %q len %d", twin.Branch(), twin.Tensor("x").Len())
	}
	if _, err := ds.ReadAtVersion(ctx, "ghost"); err == nil {
		t.Fatal("unknown ref should error")
	}
}

func TestCheckoutErrors(t *testing.T) {
	ctx := context.Background()
	ds, _ := newTestDataset(t)
	if err := ds.Checkout(ctx, "ghost", false); err == nil {
		t.Fatal("unknown ref should error")
	}
	// Checking out another branch's mutable head by id is rejected.
	x, _ := ds.CreateTensor(ctx, TensorSpec{Name: "x", Dtype: tensor.Int32, Bounds: smallBounds})
	appendInts(t, x, 1)
	ds.Commit(ctx, "c")
	head := ds.Version()
	ds.Checkout(ctx, "other", true)
	if err := ds.Checkout(ctx, head, false); err == nil {
		t.Fatal("checking out a mutable head id should error")
	}
}

func TestGenericDtypeMismatchRejected(t *testing.T) {
	ctx := context.Background()
	ds, _ := newTestDataset(t)
	x, _ := ds.CreateTensor(ctx, TensorSpec{Name: "x", Dtype: tensor.Int32, Bounds: smallBounds})
	if err := x.Append(ctx, tensor.Scalar(tensor.Float64, 1)); err == nil {
		t.Fatal("dtype mismatch on generic tensor should error")
	}
}

func TestSampleCompressionRankValidation(t *testing.T) {
	ctx := context.Background()
	ds, _ := newTestDataset(t)
	img, _ := ds.CreateTensor(ctx, TensorSpec{Name: "img", Htype: "image"})
	// 1-d input cannot be media-encoded; htype check rejects first.
	if err := img.Append(ctx, tensor.MustNew(tensor.UInt8, 5)); err == nil {
		t.Fatal("1-d image should be rejected")
	}
}

func TestDeleteTensor(t *testing.T) {
	ctx := context.Background()
	ds, store := newTestDataset(t)
	a, _ := ds.CreateTensor(ctx, TensorSpec{Name: "a", Dtype: tensor.Int32, Bounds: smallBounds})
	b, _ := ds.CreateTensor(ctx, TensorSpec{Name: "b", Dtype: tensor.Int32, Bounds: smallBounds})
	appendInts(t, a, 1, 2)
	appendInts(t, b, 3)
	c1, err := ds.Commit(ctx, "both tensors")
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.DeleteTensor(ctx, "b"); err != nil {
		t.Fatal(err)
	}
	if ds.Tensor("b") != nil {
		t.Fatal("b still open after delete")
	}
	if got := ds.Tensors(); !reflect.DeepEqual(got, []string{"a"}) {
		t.Fatalf("tensors = %v", got)
	}
	if err := ds.DeleteTensor(ctx, "b"); err == nil {
		t.Fatal("double delete should error")
	}
	// Reopen sees the deletion.
	if err := ds.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	back, err := Open(ctx, store)
	if err != nil {
		t.Fatal(err)
	}
	if back.Tensor("b") != nil {
		t.Fatal("b resurrected after reopen")
	}
	// The committed snapshot still has it (schema evolution).
	old, err := back.ReadAtVersion(ctx, c1)
	if err != nil {
		t.Fatal(err)
	}
	if old.Tensor("b") == nil {
		t.Fatal("b missing from committed snapshot")
	}
	if got := readInt(t, old.Tensor("b"), 0); got != 3 {
		t.Fatalf("historical b[0] = %d", got)
	}
}

func TestAudioAndSegmentMaskHtypes(t *testing.T) {
	ctx := context.Background()
	ds, _ := newTestDataset(t)
	audio, err := ds.CreateTensor(ctx, TensorSpec{Name: "waveform", Htype: "audio", Bounds: smallBounds})
	if err != nil {
		t.Fatal(err)
	}
	clip := tensor.MustNew(tensor.Float32, 32, 2) // stereo samples
	clip.SetAt(0.5, 10, 1)
	if err := audio.Append(ctx, clip); err != nil {
		t.Fatal(err)
	}
	got, err := audio.At(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := got.At(10, 1); v != 0.5 {
		t.Fatalf("waveform[10,1] = %v", v)
	}
	// 3-d audio rejected.
	if err := audio.Append(ctx, tensor.MustNew(tensor.Float32, 2, 2, 2)); err == nil {
		t.Fatal("3-d audio should be rejected")
	}

	seg, err := ds.CreateTensor(ctx, TensorSpec{Name: "segmap", Htype: "segment_mask", Bounds: smallBounds})
	if err != nil {
		t.Fatal(err)
	}
	m := tensor.MustNew(tensor.Int32, 8, 8)
	m.SetAt(7, 3, 3)
	if err := seg.Append(ctx, m); err != nil {
		t.Fatal(err)
	}
	if seg.Meta().ChunkCompression != "lz4" {
		t.Fatalf("segment_mask chunk compression = %q", seg.Meta().ChunkCompression)
	}
	back, err := seg.At(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := back.At(3, 3); v != 7 {
		t.Fatalf("segmap[3,3] = %v", v)
	}
}

func TestEmbeddingHtypeRoundTrip(t *testing.T) {
	ctx := context.Background()
	ds, _ := newTestDataset(t)
	emb, err := ds.CreateTensor(ctx, TensorSpec{Name: "vec", Htype: "embedding", Bounds: smallBounds})
	if err != nil {
		t.Fatal(err)
	}
	v, _ := tensor.FromFloat64s(tensor.Float32, []int{4}, []float64{0.1, 0.2, 0.3, 0.4})
	if err := emb.Append(ctx, v); err != nil {
		t.Fatal(err)
	}
	got, err := emb.At(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.Dtype() != tensor.Float32 || got.Len() != 4 {
		t.Fatalf("embedding = %v", got)
	}
	// Rank-2 embeddings rejected.
	if err := emb.Append(ctx, tensor.MustNew(tensor.Float32, 2, 2)); err == nil {
		t.Fatal("2-d embedding should be rejected")
	}
}
