package core

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/chunk"
	"repro/internal/storage"
	"repro/internal/tensor"
)

// sparseDataset stores n raw 10x200 uint8 samples, sample i filled with i,
// in one chunk of tensor x over store.
func sparseDataset(t *testing.T, store storage.Provider, n int) (*Dataset, *Tensor) {
	t.Helper()
	ctx := context.Background()
	ds, err := Create(ctx, store, "sparse")
	if err != nil {
		t.Fatal(err)
	}
	x, err := ds.CreateTensor(ctx, TensorSpec{Name: "x", Dtype: tensor.UInt8, Bounds: chunk.Bounds{Min: 1 << 20, Target: 2 << 20, Max: 4 << 20}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		arr := tensor.MustNew(tensor.UInt8, 10, 200)
		copy(arr.Bytes(), bytes.Repeat([]byte{byte(i)}, 2000))
		if err := x.Append(ctx, arr); err != nil {
			t.Fatal(err)
		}
	}
	if err := ds.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	return ds, x
}

// TestReadSparseReadsWhatItSelects: a sparse read of two of sixteen samples
// is one batched request for about their share of the chunk's bytes, and
// hands back those samples' bytes and every sample's shape.
func TestReadSparseReadsWhatItSelects(t *testing.T) {
	ctx := context.Background()
	count := storage.NewCounting(storage.NewMemory())
	_, x := sparseDataset(t, count, 16)
	s, ok := x.PlanSparse([]uint64{7, 1})
	if !ok {
		t.Fatal("an uncompressed landed chunk cannot be planned sparse")
	}
	if _, ok := x.PlanSparse([]uint64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}); ok {
		t.Fatal("a plan of every sample of the chunk is no sparse read")
	}
	count.Reset()
	c, err := x.ReadSparse(ctx, s)
	if err != nil {
		t.Fatal(err)
	}
	samples, err := c.Samples()
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 16 {
		t.Fatalf("%d samples, want the chunk's 16", len(samples))
	}
	for i, smp := range samples {
		if len(smp.Shape) != 2 || smp.Shape[0] != 10 || smp.Shape[1] != 200 {
			t.Fatalf("sample %d shape %v", i, smp.Shape)
		}
		switch i {
		case 1, 7:
			if !bytes.Equal(smp.Data, bytes.Repeat([]byte{byte(i)}, 2000)) {
				t.Fatalf("selected sample %d reads other bytes", i)
			}
		default:
			if smp.Data != nil {
				t.Fatalf("unselected sample %d has data", i)
			}
		}
	}
	snap := count.Snapshot()
	if snap.BatchGets != 1 || snap.Gets != 0 || snap.RangeGets != 0 {
		t.Fatalf("sparse read made %+v, want one batch", snap)
	}
	if snap.BytesRead > 2*2000+2*chunk.BlockSize+1024 {
		t.Fatalf("sparse read of 4000 bytes moved %d", snap.BytesRead)
	}
}

// TestSliceChecksWhatItReads: a byte flipped inside a stored raw sample makes
// Slice of that sample fail with the corruption At reports, while a slice of
// an undamaged sample of the same chunk still reads.
func TestSliceChecksWhatItReads(t *testing.T) {
	ctx := context.Background()
	mem := storage.NewMemory()
	_, x := sparseDataset(t, mem, 4)
	key := x.ChunkIdentity(0)
	raw, err := mem.Get(ctx, key)
	if err != nil {
		t.Fatal(err)
	}
	off, _, _, err := chunk.SampleRange(raw, 2)
	if err != nil {
		t.Fatal(err)
	}
	bad := bytes.Clone(raw)
	bad[off+250] ^= 0xFF // row 1 of sample 2
	if err := mem.Put(ctx, key, bad); err != nil {
		t.Fatal(err)
	}
	if _, err := x.At(ctx, 2); !errors.Is(err, chunk.ErrCorrupt) {
		t.Fatalf("At of the damaged sample = %v, want chunk.ErrCorrupt", err)
	}
	if arr, err := x.Slice(ctx, 2, []tensor.Range{{Start: 1, Stop: 2}}); !errors.Is(err, chunk.ErrCorrupt) {
		t.Fatalf("Slice of the damaged row = %v (%v), want chunk.ErrCorrupt", err, arr)
	}
	part, err := x.Slice(ctx, 0, []tensor.Range{{Start: 3, Stop: 5}})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(part.Bytes(), make([]byte, 400)) {
		t.Fatal("slice of an undamaged sample reads other bytes")
	}
}

// TestFsckNamesTheDamagedBlock: fsck reports a flipped byte inside a chunk
// object as a checksum mismatch that names the object and where in it the
// chunk's own checks fail: the data block by index, the directory seal or
// the block table seal.
func TestFsckNamesTheDamagedBlock(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		at   func(raw []byte) int
		want string
	}{
		{"data block", func(raw []byte) int { off, _, _, _ := chunk.SampleRange(raw, 1); return int(off) + 1500 }, "block 3 "},
		{"directory", func([]byte) int { return 20 }, "directory seal"},
		{"block table", func(raw []byte) int { return len(raw) - 20 }, "block table seal"},
	} {
		mem := storage.NewMemory()
		_, x := sparseDataset(t, mem, 4)
		key := x.ChunkIdentity(0)
		raw, err := mem.Get(ctx, key)
		if err != nil {
			t.Fatal(err)
		}
		bad := bytes.Clone(raw)
		bad[tc.at(raw)] ^= 0x08
		if err := mem.Put(ctx, key, bad); err != nil {
			t.Fatal(err)
		}
		rep, err := Fsck(ctx, mem, FsckOptions{})
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, i := range rep.Issues {
			if i.Kind == FsckChecksumMismatch && i.Key == key && strings.Contains(i.Detail, tc.want) {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: fsck does not name %q in %s:\n%s", tc.name, tc.want, key, rep.Format())
		}
	}
}
