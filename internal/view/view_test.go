package view

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/chunk"
	"repro/internal/core"
	"repro/internal/storage"
	"repro/internal/tensor"
)

var smallBounds = chunk.Bounds{Min: 64, Target: 128, Max: 256}

func buildDataset(t *testing.T) *core.Dataset {
	t.Helper()
	ctx := context.Background()
	ds, err := core.Create(ctx, storage.NewMemory(), "src")
	if err != nil {
		t.Fatal(err)
	}
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

func TestAllViewCoversDataset(t *testing.T) {
	ds := buildDataset(t)
	v := All(ds)
	if v.Len() != 20 {
		t.Fatalf("len = %d", v.Len())
	}
	if !reflect.DeepEqual(v.ColumnNames(), []string{"x", "y"}) {
		t.Fatalf("columns = %v", v.ColumnNames())
	}
	if v.IsSparse() {
		t.Fatal("identity view must not be sparse")
	}
	arr, err := v.At(context.Background(), 7, "x")
	if err != nil {
		t.Fatal(err)
	}
	if val, _ := arr.Item(); val != 7 {
		t.Fatalf("At(7, x) = %v", val)
	}
}

func TestSparseSelectionAndRow(t *testing.T) {
	ds := buildDataset(t)
	ctx := context.Background()
	v := New(ds, []uint64{3, 9, 15}, nil)
	if !v.IsSparse() || v.Len() != 3 {
		t.Fatalf("sparse=%v len=%d", v.IsSparse(), v.Len())
	}
	row, err := v.Row(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	xv, _ := row["x"].Item()
	yv, _ := row["y"].Item()
	if xv != 9 || yv != 4.5 {
		t.Fatalf("row 1 = x:%v y:%v", xv, yv)
	}
	if _, err := v.At(ctx, 5, "x"); err == nil {
		t.Fatal("row out of range should error")
	}
	if _, err := v.At(ctx, 0, "z"); err == nil {
		t.Fatal("unknown column should error")
	}
}

func TestComputedColumn(t *testing.T) {
	ds := buildDataset(t)
	ctx := context.Background()
	xt := ds.Tensor("x")
	v := New(ds, []uint64{0, 1, 2}, []Column{
		{Name: "x", Source: "x"},
		{Name: "x2", Eval: func(ctx context.Context, row uint64) (*tensor.NDArray, error) {
			arr, err := xt.At(ctx, row)
			if err != nil {
				return nil, err
			}
			return arr.Mul(tensor.Scalar(tensor.Float64, 2))
		}},
	})
	got, err := v.At(ctx, 2, "x2")
	if err != nil {
		t.Fatal(err)
	}
	if val, _ := got.Item(); val != 4 {
		t.Fatalf("x2[2] = %v", val)
	}
}

func TestSubview(t *testing.T) {
	ds := buildDataset(t)
	v := All(ds)
	sub, err := v.Subview(5, 10)
	if err != nil || sub.Len() != 5 {
		t.Fatalf("subview = %v, %v", sub, err)
	}
	src, _ := sub.SourceRow(0)
	if src != 5 {
		t.Fatalf("subview row 0 maps to %d", src)
	}
	if _, err := v.Subview(10, 5); err == nil {
		t.Fatal("inverted subview should error")
	}
	if _, err := v.Subview(0, 100); err == nil {
		t.Fatal("oversized subview should error")
	}
}

func TestResolverFetchAndRegistry(t *testing.T) {
	ctx := context.Background()
	bucket := storage.NewMemory()
	bucket.Put(ctx, "data/a.bin", []byte("payload"))
	r := NewResolver()
	r.Register("sim://bucket-a", bucket)

	got, err := r.Fetch(ctx, "sim://bucket-a/data/a.bin")
	if err != nil || string(got) != "payload" {
		t.Fatalf("Fetch = %q, %v", got, err)
	}
	if _, err := r.Fetch(ctx, "sim://unknown/b"); err == nil {
		t.Fatal("unregistered base should error")
	}
}

func TestLinkedColumnResolvesImages(t *testing.T) {
	ctx := context.Background()
	// External bucket with a PNG.
	bucket := storage.NewMemory()
	src := tensor.MustNew(tensor.UInt8, 5, 7, 3)
	for i := 0; i < src.Len(); i++ {
		src.SetAt(float64(i%255), i/(7*3), (i/3)%7, i%3)
	}
	png, err := encodePNG(src)
	if err != nil {
		t.Fatal(err)
	}
	bucket.Put(ctx, "imgs/0.png", png)

	resolver := NewResolver()
	resolver.Register("sim://ext", bucket)

	ds, _ := core.Create(ctx, storage.NewMemory(), "linked")
	links, err := ds.CreateTensor(ctx, core.TensorSpec{Name: "images", Htype: "link[image]"})
	if err != nil {
		t.Fatal(err)
	}
	if err := links.AppendLink(ctx, "sim://ext/imgs/0.png"); err != nil {
		t.Fatal(err)
	}

	v := New(ds, []uint64{0}, []Column{LinkedColumn("images", links, resolver)})
	got, err := v.At(ctx, 0, "images")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Shape(), []int{5, 7, 3}) {
		t.Fatalf("resolved shape = %v", got.Shape())
	}
	if !got.Equal(src) {
		t.Fatal("png link resolution must be lossless")
	}
}

func encodePNG(arr *tensor.NDArray) ([]byte, error) {
	// Reuse the sample codec registry through a tiny indirection to avoid
	// an import cycle in tests.
	c, err := pngCodec()
	if err != nil {
		return nil, err
	}
	s := arr.Shape()
	return c.Encode(arr.Bytes(), s[0], s[1], s[2])
}
