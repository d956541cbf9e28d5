// Package view_test holds the test of both copy paths a view's rows take,
// transform.Materialize and core's Merge; transform imports view, so it is
// an external test.
package view_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/chunk"
	"repro/internal/core"
	"repro/internal/storage"
	"repro/internal/tensor"
	"repro/internal/transform"
	"repro/internal/view"
)

var smallBounds = chunk.Bounds{Min: 64, Target: 128, Max: 256}

// copyCase is one column kind of TestCopiesKeepStoredBytes: its spec, how to
// append row i, and row i's replacement for an update (nil: the kind has no
// SetAt).
type copyCase struct {
	name   string
	spec   core.TensorSpec
	append func(ctx context.Context, x *core.Tensor, i int) error
	update func(i int) *tensor.NDArray
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

func appendArr(f func(i int) *tensor.NDArray) func(context.Context, *core.Tensor, int) error {
	return func(ctx context.Context, x *core.Tensor, i int) error { return x.Append(ctx, f(i)) }
}

func copyCases() []copyCase {
	img := func(i int) *tensor.NDArray { return noise(i, 16, 16) }
	ints := func(i int) *tensor.NDArray {
		raw := make([]byte, 5*4)
		for j := 0; j < 5; j++ {
			binary.LittleEndian.PutUint32(raw[4*j:], uint32(100*i+j))
		}
		arr, _ := tensor.FromBytes(tensor.Int32, []int{5}, raw)
		return arr
	}
	// Even rows are 24×24 bytes, over smallBounds.Max, and tile.
	tiles := func(i int) *tensor.NDArray {
		side := 4
		if i%2 == 0 {
			side = 24
		}
		raw := make([]byte, side*side)
		rand.New(rand.NewSource(int64(i))).Read(raw)
		arr, _ := tensor.FromBytes(tensor.UInt8, []int{side, side}, raw)
		return arr
	}
	return []copyCase{
		{"jpeg", core.TensorSpec{Htype: "image", SampleCompression: "jpeg"}, appendArr(img), func(i int) *tensor.NDArray { return img(1000 + i) }},
		{"png", core.TensorSpec{Htype: "image", SampleCompression: "png"}, appendArr(img), func(i int) *tensor.NDArray { return img(1000 + i) }},
		{"lz4 int32", core.TensorSpec{Dtype: tensor.Int32, ChunkCompression: "lz4", Bounds: smallBounds}, appendArr(ints), func(i int) *tensor.NDArray { return ints(1000 + i) }},
		{"link", core.TensorSpec{Htype: "link[image]"}, func(ctx context.Context, x *core.Tensor, i int) error {
			return x.AppendLink(ctx, fmt.Sprintf("sim://bucket/%d.jpg", i))
		}, nil},
		{"sequence[image] jpeg", core.TensorSpec{Htype: "sequence[image]", SampleCompression: "jpeg"}, func(ctx context.Context, x *core.Tensor, i int) error {
			items := make([]*tensor.NDArray, 1+i%3)
			for j := range items {
				items[j] = noise(10*i+j, 8, 8)
			}
			return x.AppendSequence(ctx, items)
		}, nil},
		{"tiled raw", core.TensorSpec{Dtype: tensor.UInt8, Bounds: smallBounds}, appendArr(tiles), func(i int) *tensor.NDArray { return tiles(1000 + i) }},
	}
}

// sameRows fails unless got holds want's rows: equal stored bytes and shape
// of every stored item (StoredRow; RawAt for a tiled sample, which it
// assembles) and equal decoded rows (At).
func sameRows(t *testing.T, want, got *core.Tensor) {
	t.Helper()
	ctx := context.Background()
	if got.Len() != want.Len() {
		t.Fatalf("%d rows, want %d", got.Len(), want.Len())
	}
	stored := func(x *core.Tensor, r *core.ScanReader, row uint64) []chunk.Sample {
		t.Helper()
		items, ok, err := r.StoredRow(ctx, row)
		if err == nil && !ok {
			var s chunk.Sample
			s.Data, s.Shape, err = x.RawAt(ctx, row)
			items = []chunk.Sample{s}
		}
		if err != nil {
			t.Fatal(err)
		}
		return items
	}
	wr, gr := want.NewScanReader(), got.NewScanReader()
	for row := uint64(0); row < want.Len(); row++ {
		wi, gi := stored(want, wr, row), stored(got, gr, row)
		if len(gi) != len(wi) {
			t.Fatalf("row %d: %d stored items, want the source's %d", row, len(gi), len(wi))
		}
		for k := range wi {
			if !bytes.Equal(gi[k].Data, wi[k].Data) || !reflect.DeepEqual(gi[k].Shape, wi[k].Shape) {
				t.Errorf("row %d item %d: stored %d B of shape %v, want the source's %d B of shape %v", row, k, len(gi[k].Data), gi[k].Shape, len(wi[k].Data), wi[k].Shape)
			}
		}
	}
	for i := uint64(0); i < want.Len(); i++ {
		wa, err := want.At(ctx, i)
		if err != nil {
			t.Fatal(err)
		}
		ga, err := got.At(ctx, i)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ga.Bytes(), wa.Bytes()) || !reflect.DeepEqual(ga.Shape(), wa.Shape()) {
			t.Errorf("row %d: decodes to other values than the source's", i)
		}
	}
}

// TestCopiesKeepStoredBytes: Materialize and Merge copy a row's stored
// samples as they are, so every htype copies and no sample codec runs twice:
// each copied row keeps the source's stored bytes and decodes to the
// source's values.
func TestCopiesKeepStoredBytes(t *testing.T) {
	ctx := context.Background()
	for _, c := range copyCases() {
		c.spec.Name = "x"
		t.Run(c.name+"/materialize", func(t *testing.T) {
			ds, err := core.Create(ctx, storage.NewMemory(), "src")
			if err != nil {
				t.Fatal(err)
			}
			x, err := ds.CreateTensor(ctx, c.spec)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 8; i++ {
				if err := c.append(ctx, x, i); err != nil {
					t.Fatal(err)
				}
				if i == 5 { // landed rows, then write-buffered ones
					if err := ds.Flush(ctx); err != nil {
						t.Fatal(err)
					}
				}
			}
			out, err := transform.Materialize(ctx, view.All(ds), storage.NewMemory(), "")
			if err != nil {
				t.Fatal(err)
			}
			sameRows(t, x, out.Tensor("x"))
		})
		t.Run(c.name+"/merge", func(t *testing.T) {
			ds, err := core.Create(ctx, storage.NewMemory(), "src")
			if err != nil {
				t.Fatal(err)
			}
			x, err := ds.CreateTensor(ctx, c.spec)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 4; i++ {
				if err := c.append(ctx, x, i); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := ds.Commit(ctx, "base"); err != nil {
				t.Fatal(err)
			}
			if err := ds.Checkout(ctx, "dev", true); err != nil {
				t.Fatal(err)
			}
			for i := 4; i < 7; i++ {
				if err := c.append(ctx, ds.Tensor("x"), i); err != nil {
					t.Fatal(err)
				}
			}
			if c.update != nil {
				for _, i := range []int{0, 2} {
					if err := ds.Tensor("x").SetAt(ctx, uint64(i), c.update(i)); err != nil {
						t.Fatal(err)
					}
				}
			}
			if _, err := ds.Commit(ctx, "dev work"); err != nil {
				t.Fatal(err)
			}
			if err := ds.Checkout(ctx, "main", false); err != nil {
				t.Fatal(err)
			}
			if err := ds.Merge(ctx, "dev", core.MergeTheirs); err != nil {
				t.Fatal(err)
			}
			dev, err := ds.ReadAtVersion(ctx, "dev")
			if err != nil {
				t.Fatal(err)
			}
			sameRows(t, dev.Tensor("x"), ds.Tensor("x"))
		})
	}
}
