package core

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/compress"
	"repro/internal/storage"
	"repro/internal/tensor"
)

// TestAppendAllocs pins the ingest path's allocations per row: Append of an
// int32 scalar and AppendEncoded of a 32×32 JPEG, both into default bounds
// so no measured append seals a chunk. The bounds are the figures measured
// on these paths; the locked tail every append shares adds no allocation.
func TestAppendAllocs(t *testing.T) {
	ctx := context.Background()
	ds, err := Create(ctx, storage.NewMemory(), "allocs")
	if err != nil {
		t.Fatal(err)
	}
	x, err := ds.CreateTensor(ctx, TensorSpec{Name: "x", Dtype: tensor.Int32})
	if err != nil {
		t.Fatal(err)
	}
	img, err := ds.CreateTensor(ctx, TensorSpec{Name: "img", Htype: "image", SampleCompression: "jpeg"})
	if err != nil {
		t.Fatal(err)
	}
	codec, err := compress.SampleByName("jpeg")
	if err != nil {
		t.Fatal(err)
	}
	pixels := make([]byte, 32*32*3)
	rand.New(rand.NewSource(1)).Read(pixels)
	jpeg, err := codec.Encode(pixels, 32, 32, 3)
	if err != nil {
		t.Fatal(err)
	}
	v := tensor.Scalar(tensor.Int32, 7)
	for _, c := range []struct {
		name   string
		bound  float64
		append func() error
	}{
		{"Append int32", 1, func() error { return x.Append(ctx, v) }},
		{"AppendEncoded jpeg", 5, func() error { return img.AppendEncoded(ctx, jpeg) }},
	} {
		got := testing.AllocsPerRun(1000, func() {
			if err := c.append(); err != nil {
				t.Fatal(err)
			}
		})
		if got > c.bound {
			t.Errorf("%s: %.0f allocs/op, want ≤ %.0f", c.name, got, c.bound)
		}
		t.Logf("%s: %.0f allocs/op", c.name, got)
	}
}
