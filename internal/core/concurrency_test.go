package core

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/tensor"
)

// TestConcurrentReadersDuringWrites exercises the coarse dataset lock: many
// goroutines read while one appends; every read must observe a consistent
// sample (the §3.5 concurrent annotator/training scenario).
func TestConcurrentReadersDuringWrites(t *testing.T) {
	ctx := context.Background()
	ds, _ := newTestDataset(t)
	x, err := ds.CreateTensor(ctx, TensorSpec{Name: "x", Dtype: tensor.Int64, Bounds: smallBounds})
	if err != nil {
		t.Fatal(err)
	}
	// Seed enough samples that readers always have work.
	for i := 0; i < 64; i++ {
		if err := x.Append(ctx, tensor.Scalar(tensor.Int64, float64(i))); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, 16)

	// 8 readers hammering random-ish indices.
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			i := uint64(r)
			for {
				select {
				case <-stop:
					return
				default:
				}
				idx := i % 64
				arr, err := x.At(ctx, idx)
				if err != nil {
					errs <- fmt.Errorf("reader %d at %d: %w", r, idx, err)
					return
				}
				v, _ := arr.Item()
				if v != float64(idx) {
					errs <- fmt.Errorf("reader %d: x[%d] = %v", r, idx, v)
					return
				}
				i += 7
			}
		}(r)
	}
	// One writer appending and updating.
	for i := 64; i < 256; i++ {
		if err := x.Append(ctx, tensor.Scalar(tensor.Int64, float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	if x.Len() != 256 {
		t.Fatalf("len = %d", x.Len())
	}
}

// TestConcurrentChunkReads verifies that parallel whole-chunk reads (the
// dataloader's access pattern) are race-free and consistent.
func TestConcurrentChunkReads(t *testing.T) {
	ctx := context.Background()
	ds, _ := newTestDataset(t)
	x, _ := ds.CreateTensor(ctx, TensorSpec{Name: "x", Dtype: tensor.Int32, Bounds: smallBounds})
	for i := 0; i < 200; i++ {
		x.Append(ctx, tensor.Scalar(tensor.Int32, float64(i)))
	}
	if err := ds.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := uint64(w); i < 200; i += 16 {
				chunkID, local, err := x.ChunkOf(i)
				if err != nil {
					t.Errorf("ChunkOf(%d): %v", i, err)
					return
				}
				c, err := x.ReadChunk(ctx, chunkID)
				if err != nil {
					t.Errorf("ReadChunk(%d): %v", chunkID, err)
					return
				}
				samples, err := c.Samples()
				if err != nil {
					t.Errorf("ReadChunk(%d).Samples: %v", chunkID, err)
					return
				}
				arr, err := x.At(ctx, i)
				if err != nil {
					t.Errorf("At(%d): %v", i, err)
					return
				}
				if v, _ := arr.Item(); v != float64(i) || !bytes.Equal(samples[local].Data, arr.Bytes()) {
					t.Errorf("x[%d] = %v, stored %v via chunk path", i, v, samples[local].Data)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestSequenceOfImages exercises the sequence[image] meta-htype (§3.3):
// rows of JPEG-compressed frames with per-row lengths.
func TestSequenceOfImages(t *testing.T) {
	ctx := context.Background()
	ds, _ := newTestDataset(t)
	seq, err := ds.CreateTensor(ctx, TensorSpec{Name: "episodes", Htype: "sequence[image]", Bounds: smallBounds})
	if err != nil {
		t.Fatal(err)
	}
	if seq.Meta().SampleCompression != "jpeg" {
		t.Fatalf("sequence[image] sample compression = %q", seq.Meta().SampleCompression)
	}
	frame := func(v byte) *tensor.NDArray {
		f := tensor.MustNew(tensor.UInt8, 16, 16, 3)
		for i := range f.Bytes() {
			f.Bytes()[i] = v
		}
		return f
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(seq.AppendSequence(ctx, []*tensor.NDArray{frame(10), frame(20), frame(30)}))
	must(seq.AppendSequence(ctx, []*tensor.NDArray{frame(40)}))
	if seq.Len() != 2 {
		t.Fatalf("rows = %d", seq.Len())
	}
	items, err := seq.SequenceAt(ctx, 0)
	must(err)
	if len(items) != 3 {
		t.Fatalf("row 0 items = %d", len(items))
	}
	// JPEG of a constant image decodes near-exactly.
	v, _ := items[1].At(8, 8, 0)
	if v < 15 || v > 25 {
		t.Fatalf("frame 1 value = %v, want ~20", v)
	}
	n, err := seq.SequenceLen(1)
	must(err)
	if n != 1 {
		t.Fatalf("row 1 length = %d", n)
	}
	// Persistence.
	must(ds.Flush(ctx))
	st := ds.store
	back, err := Open(ctx, st)
	must(err)
	items, err = back.Tensor("episodes").SequenceAt(ctx, 0)
	must(err)
	if len(items) != 3 {
		t.Fatalf("reopened row 0 items = %d", len(items))
	}
}

// TestVideoSequencePlaybackPattern covers the §4.3 sequential-view access:
// jumping to a specific position of a sequence without fetching the rest.
func TestSequenceRandomItemAccess(t *testing.T) {
	ctx := context.Background()
	ds, _ := newTestDataset(t)
	seq, _ := ds.CreateTensor(ctx, TensorSpec{Name: "s", Htype: "sequence[generic]", Dtype: tensor.Int32, Bounds: smallBounds})
	for row := 0; row < 10; row++ {
		items := make([]*tensor.NDArray, row%4+1)
		for k := range items {
			items[k] = tensor.Scalar(tensor.Int32, float64(row*10+k))
		}
		if err := seq.AppendSequence(ctx, items); err != nil {
			t.Fatal(err)
		}
	}
	// Jump straight to row 7, item 2.
	items, err := seq.SequenceAt(ctx, 7)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := items[2].Item(); v != 72 {
		t.Fatalf("row 7 item 2 = %v", v)
	}
}
