package core

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/chunk"
	"repro/internal/storage"
	"repro/internal/tensor"
)

func TestOversizeSampleIsTiled(t *testing.T) {
	ctx := context.Background()
	ds, _ := newTestDataset(t)
	// Max 256 bytes; a 20x20 int32 sample is 1600 bytes -> tiled.
	tr, err := ds.CreateTensor(ctx, TensorSpec{Name: "big", Dtype: tensor.Int32, Bounds: smallBounds})
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]float64, 400)
	for i := range vals {
		vals[i] = float64(i)
	}
	big, _ := tensor.FromFloat64s(tensor.Int32, []int{20, 20}, vals)
	if err := tr.Append(ctx, big); err != nil {
		t.Fatal(err)
	}
	// A small sample after the big one still works.
	if err := tr.Append(ctx, tensor.Scalar(tensor.Int32, 5)); err != nil {
		t.Fatal(err)
	}

	got, err := tr.At(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(big) {
		t.Fatal("tiled sample did not round trip")
	}
	// A tiled sample is raw: its stored bytes are the assembled array's.
	raw, shape, err := tr.RawAt(ctx, 0)
	if err != nil || !bytes.Equal(raw, big.Bytes()) || !reflect.DeepEqual(shape, big.Shape()) {
		t.Fatalf("RawAt of the tiled sample: %d bytes, shape %v, %v", len(raw), shape, err)
	}
	if v := readInt(t, tr, 1); v != 5 {
		t.Fatalf("sample after tiled = %d", v)
	}
	if tr.tileEnc.Len() != 1 {
		t.Fatalf("tile encoder has %d entries", tr.tileEnc.Len())
	}
}

func TestTiledSliceFetchesOnlyOverlappingTiles(t *testing.T) {
	ctx := context.Background()
	store := storage.NewCounting(storage.NewMemory())
	ds, err := Create(ctx, store, "tiles")
	if err != nil {
		t.Fatal(err)
	}
	tr, _ := ds.CreateTensor(ctx, TensorSpec{Name: "big", Dtype: tensor.Int32, Bounds: smallBounds})
	vals := make([]float64, 1024)
	for i := range vals {
		vals[i] = float64(i % 251)
	}
	big, _ := tensor.FromFloat64s(tensor.Int32, []int{32, 32}, vals)
	if err := tr.Append(ctx, big); err != nil {
		t.Fatal(err)
	}
	entry, ok := tr.tileEnc.Get(0)
	if !ok || len(entry.ChunkIDs) < 4 {
		t.Fatalf("expected a multi-tile layout, got %+v", entry)
	}

	store.Reset()
	region := []tensor.Range{{Start: 0, Stop: 2}, {Start: 0, Stop: 2}}
	part, err := tr.Slice(ctx, 0, region)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := big.Slice(region...)
	if !part.Equal(want) {
		t.Fatal("tiled slice mismatch")
	}
	if gets := store.Snapshot().Gets; gets >= int64(len(entry.ChunkIDs)) {
		t.Fatalf("slice fetched %d chunks of %d; should fetch only overlapping tiles", gets, len(entry.ChunkIDs))
	}
}

func TestTiledSamplePersistsAcrossReopen(t *testing.T) {
	ctx := context.Background()
	store := storage.NewMemory()
	ds, _ := Create(ctx, store, "tiles")
	tr, _ := ds.CreateTensor(ctx, TensorSpec{Name: "big", Dtype: tensor.Int32, Bounds: smallBounds})
	vals := make([]float64, 400)
	for i := range vals {
		vals[i] = float64(i)
	}
	big, _ := tensor.FromFloat64s(tensor.Int32, []int{20, 20}, vals)
	tr.Append(ctx, big)
	if err := ds.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	back, err := Open(ctx, store)
	if err != nil {
		t.Fatal(err)
	}
	got, err := back.Tensor("big").At(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(big) {
		t.Fatal("tiled sample lost across reopen")
	}
}

func TestVideoExemptFromTiling(t *testing.T) {
	ctx := context.Background()
	ds, _ := newTestDataset(t)
	vid, err := ds.CreateTensor(ctx, TensorSpec{Name: "clips", Htype: "video", Bounds: smallBounds})
	if err != nil {
		t.Fatal(err)
	}
	// 8 frames of 8x8x3 = 1536 bytes > max 256, but videos stay whole.
	clip := tensor.MustNew(tensor.UInt8, 8, 8, 8, 3)
	for f := 0; f < 8; f++ {
		clip.SetAt(float64(f+1), f, 0, 0, 0)
	}
	if err := vid.Append(ctx, clip); err != nil {
		t.Fatal(err)
	}
	if vid.tileEnc.Len() != 0 {
		t.Fatal("video sample must not be tiled (§3.4)")
	}
	got, err := vid.At(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(clip) {
		t.Fatal("video round trip failed")
	}
}

func TestVideoFrameRangeRead(t *testing.T) {
	// Reading frames [2,4) of a stored video must use a byte-range
	// request, not a full chunk fetch (§3.4: range-based requests while
	// streaming video).
	ctx := context.Background()
	inner := storage.NewMemory()
	count := storage.NewCounting(inner)
	ds, err := Create(ctx, count, "video")
	if err != nil {
		t.Fatal(err)
	}
	vid, _ := ds.CreateTensor(ctx, TensorSpec{Name: "clips", Htype: "video", Bounds: smallBounds})
	clip := tensor.MustNew(tensor.UInt8, 8, 4, 4, 3)
	for f := 0; f < 8; f++ {
		clip.SetAt(float64(10+f), f, 1, 1, 1)
	}
	if err := vid.Append(ctx, clip); err != nil {
		t.Fatal(err)
	}
	if err := ds.Flush(ctx); err != nil {
		t.Fatal(err)
	}

	count.Reset()
	frames, err := vid.Slice(ctx, 0, []tensor.Range{{Start: 2, Stop: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(frames.Shape(), []int{2, 4, 4, 3}) {
		t.Fatalf("frame slice shape = %v", frames.Shape())
	}
	want, _ := clip.Slice(tensor.Range{Start: 2, Stop: 4})
	if !frames.Equal(want) {
		t.Fatal("frame data mismatch")
	}
	if snap := count.Snapshot(); snap.Gets != 0 {
		t.Fatalf("frame read did %d full Gets; want range requests only", snap.Gets)
	} else if snap.RangeGets == 0 {
		t.Fatal("frame read made no range requests")
	}
}

func TestRangeReadBytesAreProportional(t *testing.T) {
	ctx := context.Background()
	inner := storage.NewMemory()
	count := storage.NewCounting(inner)
	ds, _ := Create(ctx, count, "ranges")
	tr, _ := ds.CreateTensor(ctx, TensorSpec{Name: "x", Dtype: tensor.UInt8, Bounds: chunk.Bounds{Min: 1 << 20, Target: 2 << 20, Max: 4 << 20}})
	// One 100KB sample.
	big := tensor.MustNew(tensor.UInt8, 1000, 100)
	tr.Append(ctx, big)
	ds.Flush(ctx)

	count.Reset()
	if _, err := tr.Slice(ctx, 0, []tensor.Range{{Start: 0, Stop: 10}}); err != nil {
		t.Fatal(err)
	}
	// 10 rows x 100 bytes = 1KB payload; directory overhead allowed, but
	// nowhere near the 100KB full sample.
	if br := count.Snapshot().BytesRead; br > 20_000 {
		t.Fatalf("range read transferred %d bytes for a 1KB slice", br)
	}
}

func TestRechunkAfterSparseWrites(t *testing.T) {
	ctx := context.Background()
	ds, _ := newTestDataset(t)
	tr, _ := ds.CreateTensor(ctx, TensorSpec{Name: "x", Dtype: tensor.Int32, Bounds: smallBounds})
	// Sparse assignment creates a degenerate layout.
	for _, idx := range []uint64{50, 10, 30} {
		if err := tr.SetAt(ctx, idx, tensor.Scalar(tensor.Int32, float64(idx))); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Len() != 51 {
		t.Fatalf("len = %d", tr.Len())
	}
	before := map[uint64]int{}
	for i := uint64(0); i < tr.Len(); i++ {
		arr, err := tr.At(ctx, i)
		if err != nil {
			t.Fatal(err)
		}
		before[i] = arr.Len()
	}

	if err := tr.Rechunk(ctx); err != nil {
		t.Fatal(err)
	}
	// Content identical after re-chunking.
	for i := uint64(0); i < tr.Len(); i++ {
		arr, err := tr.At(ctx, i)
		if err != nil {
			t.Fatalf("post-rechunk At(%d): %v", i, err)
		}
		if arr.Len() != before[i] {
			t.Fatalf("sample %d changed size after rechunk", i)
		}
	}
	for _, idx := range []uint64{50, 10, 30} {
		if got := readInt(t, tr, idx); got != int(idx) {
			t.Fatalf("x[%d] = %d after rechunk", idx, got)
		}
	}
	if err := ds.Flush(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestRechunkPreservesTiledSamples(t *testing.T) {
	ctx := context.Background()
	ds, _ := newTestDataset(t)
	tr, _ := ds.CreateTensor(ctx, TensorSpec{Name: "x", Dtype: tensor.Int32, Bounds: smallBounds})
	appendInts(t, tr, 1, 2)
	vals := make([]float64, 400)
	for i := range vals {
		vals[i] = float64(i)
	}
	big, _ := tensor.FromFloat64s(tensor.Int32, []int{20, 20}, vals)
	tr.Append(ctx, big)
	appendInts(t, tr, 3)

	if err := tr.Rechunk(ctx); err != nil {
		t.Fatal(err)
	}
	got, err := tr.At(ctx, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(big) {
		t.Fatal("tiled sample corrupted by rechunk")
	}
	if v := readInt(t, tr, 3); v != 3 {
		t.Fatalf("x[3] = %d", v)
	}
}

func TestStorageFailurePropagates(t *testing.T) {
	ctx := context.Background()
	boom := errors.New("injected failure")
	inner := storage.NewMemory()
	ds, err := Create(ctx, inner, "flaky")
	if err != nil {
		t.Fatal(err)
	}
	tr, _ := ds.CreateTensor(ctx, TensorSpec{Name: "x", Dtype: tensor.Int32, Bounds: smallBounds})
	appendInts(t, tr, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16,
		17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32)
	if err := ds.Flush(ctx); err != nil {
		t.Fatal(err)
	}

	// Swap in a provider that fails every read.
	ds.store = storage.NewFlaky(inner, 1, boom)
	tr.ds = ds
	// The pending buffer is empty post-flush; reads must hit storage and
	// surface the injected error.
	if _, err := tr.At(ctx, 0); !errors.Is(err, boom) {
		t.Fatalf("expected injected error, got %v", err)
	}
}

func TestContextCancellationPropagates(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	ds, _ := newTestDataset(t)
	tr, _ := ds.CreateTensor(ctx, TensorSpec{Name: "x", Dtype: tensor.Int32, Bounds: smallBounds})
	appendInts(t, tr, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16,
		17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32)
	ds.Flush(ctx)
	cancel()
	if _, err := tr.At(ctx, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("expected context.Canceled, got %v", err)
	}
}
