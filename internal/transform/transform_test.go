package transform

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/chunk"
	"repro/internal/core"
	"repro/internal/simnet"
	"repro/internal/storage"
	"repro/internal/tensor"
)

var smallBounds = chunk.Bounds{Min: 64, Target: 128, Max: 256}

func sourceDataset(t testing.TB, n int) *core.Dataset {
	t.Helper()
	ctx := context.Background()
	ds, err := core.Create(ctx, storage.NewMemory(), "src")
	if err != nil {
		t.Fatal(err)
	}
	x, _ := ds.CreateTensor(ctx, core.TensorSpec{Name: "x", Dtype: tensor.Int32, Bounds: smallBounds})
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

func destDataset(t *testing.T, names ...string) *core.Dataset {
	t.Helper()
	ctx := context.Background()
	ds, err := core.Create(ctx, storage.NewMemory(), "dst")
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		if _, err := ds.CreateTensor(ctx, core.TensorSpec{Name: n, Dtype: tensor.Float64, Bounds: smallBounds}); err != nil {
			t.Fatal(err)
		}
	}
	return ds
}

func TestOneToOneTransformPreservesOrder(t *testing.T) {
	ctx := context.Background()
	src := sourceDataset(t, 50)
	dst := destDataset(t, "y")
	p := Compute(func(in Sample, out *Collector) error {
		v, _ := in["x"].Item()
		out.Emit(Sample{"y": tensor.Scalar(tensor.Float64, v*v)})
		return nil
	})
	stats, err := p.Eval(ctx, FromDataset(src), dst, Options{Workers: 4, BatchSize: 7})
	if err != nil {
		t.Fatal(err)
	}
	if stats.InputSamples != 50 || stats.OutputSamples != 50 {
		t.Fatalf("stats = %+v", stats)
	}
	// Order must be deterministic despite 4 workers.
	for i := 0; i < 50; i++ {
		arr, err := dst.Tensor("y").At(ctx, uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		v, _ := arr.Item()
		if v != float64(i*i) {
			t.Fatalf("y[%d] = %v, want %d", i, v, i*i)
		}
	}
}

func TestOneToManyTransform(t *testing.T) {
	ctx := context.Background()
	src := sourceDataset(t, 10)
	dst := destDataset(t, "y")
	p := Compute(func(in Sample, out *Collector) error {
		v, _ := in["x"].Item()
		// Emit v copies of each sample (0 emits none).
		for k := 0; k < int(v)%3; k++ {
			out.Emit(Sample{"y": tensor.Scalar(tensor.Float64, v)})
		}
		return nil
	})
	stats, err := p.Eval(ctx, FromDataset(src), dst, Options{Workers: 2, BatchSize: 3})
	if err != nil {
		t.Fatal(err)
	}
	// i%3 copies for i in 0..9: 0+1+2+0+1+2+0+1+2+0 = 9.
	if stats.OutputSamples != 9 {
		t.Fatalf("outputs = %d, want 9", stats.OutputSamples)
	}
	if dst.Tensor("y").Len() != 9 {
		t.Fatalf("dst len = %d", dst.Tensor("y").Len())
	}
}

func TestPipelineStagesCompose(t *testing.T) {
	ctx := context.Background()
	src := sourceDataset(t, 20)
	dst := destDataset(t, "z")
	p := Compute(func(in Sample, out *Collector) error {
		v, _ := in["x"].Item()
		out.Emit(Sample{"x": tensor.Scalar(tensor.Float64, v+1)})
		return nil
	}).Then(func(in Sample, out *Collector) error {
		v, _ := in["x"].Item()
		out.Emit(Sample{"z": tensor.Scalar(tensor.Float64, v*10)})
		return nil
	})
	if _, err := p.Eval(ctx, FromDataset(src), dst, Options{Workers: 3}); err != nil {
		t.Fatal(err)
	}
	arr, _ := dst.Tensor("z").At(ctx, 0)
	v, _ := arr.Item()
	if v != 10 { // (0+1)*10
		t.Fatalf("z[0] = %v", v)
	}
}

func TestIterSourceIngestion(t *testing.T) {
	ctx := context.Background()
	dst := destDataset(t, "v")
	src := IterSource{N: 15, Fn: func(i int) (Sample, error) {
		return Sample{"v": tensor.Scalar(tensor.Float64, float64(i)*2)}, nil
	}}
	p := Compute(func(in Sample, out *Collector) error {
		out.Emit(in)
		return nil
	})
	stats, err := p.Eval(ctx, src, dst, Options{Workers: 4, BatchSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	if stats.OutputSamples != 15 {
		t.Fatalf("outputs = %d", stats.OutputSamples)
	}
	arr, _ := dst.Tensor("v").At(ctx, 7)
	v, _ := arr.Item()
	if v != 14 {
		t.Fatalf("v[7] = %v", v)
	}
}

func TestTransformErrorAborts(t *testing.T) {
	ctx := context.Background()
	src := sourceDataset(t, 30)
	dst := destDataset(t, "y")
	boom := errors.New("bad input")
	p := Compute(func(in Sample, out *Collector) error {
		v, _ := in["x"].Item()
		if v == 13 {
			return boom
		}
		out.Emit(Sample{"y": tensor.Scalar(tensor.Float64, v)})
		return nil
	})
	if _, err := p.Eval(ctx, FromDataset(src), dst, Options{Workers: 4, BatchSize: 4}); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want transform failure", err)
	}
}

func TestUnknownOutputTensorErrors(t *testing.T) {
	ctx := context.Background()
	src := sourceDataset(t, 3)
	dst := destDataset(t, "y")
	p := Compute(func(in Sample, out *Collector) error {
		out.Emit(Sample{"nosuch": tensor.Scalar(tensor.Float64, 1)})
		return nil
	})
	if _, err := p.Eval(ctx, FromDataset(src), dst, Options{}); err == nil {
		t.Fatal("unknown output tensor should error")
	}
}

func TestEvalInPlace(t *testing.T) {
	ctx := context.Background()
	ds := sourceDataset(t, 25)
	p := Compute(func(in Sample, out *Collector) error {
		v, _ := in["x"].Item()
		out.Emit(Sample{"x": tensor.Scalar(tensor.Int32, v+100)})
		return nil
	})
	stats, err := p.EvalInPlace(ctx, ds, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if stats.OutputSamples != 25 {
		t.Fatalf("outputs = %d", stats.OutputSamples)
	}
	arr, _ := ds.Tensor("x").At(ctx, 5)
	v, _ := arr.Item()
	if v != 105 {
		t.Fatalf("x[5] = %v after in-place transform", v)
	}
}

func TestEvalInPlaceRejectsOneToMany(t *testing.T) {
	ctx := context.Background()
	ds := sourceDataset(t, 5)
	p := Compute(func(in Sample, out *Collector) error {
		out.Emit(in)
		out.Emit(in)
		return nil
	})
	if _, err := p.EvalInPlace(ctx, ds, Options{Workers: 2}); err == nil {
		t.Fatal("in-place one-to-many should error")
	}
}

// BenchmarkEvalLanes measures Eval into an unconfigured destination on
// simulated same-region S3 (default 8 flush lanes) against the same
// destination set to GOMAXPROCS lanes through SetWriteOptions.
func BenchmarkEvalLanes(b *testing.B) {
	ctx := context.Background()
	src := sourceDataset(b, 2048)
	p := Compute(func(in Sample, out *Collector) error {
		v, _ := in["x"].Item()
		out.Emit(Sample{"y": tensor.Scalar(tensor.Float64, v)})
		return nil
	})
	for _, lanes := range []int{0, runtime.GOMAXPROCS(0)} {
		name := "default"
		if lanes > 0 {
			name = fmt.Sprintf("gomaxprocs-%d", lanes)
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				dst, err := core.Create(ctx, storage.NewSimObjectStore(simnet.S3SameRegion()), "dst")
				if err != nil {
					b.Fatal(err)
				}
				if _, err := dst.CreateTensor(ctx, core.TensorSpec{Name: "y", Dtype: tensor.Float64, Bounds: smallBounds}); err != nil {
					b.Fatal(err)
				}
				if lanes > 0 {
					if err := dst.SetWriteOptions(core.WriteOptions{FlushWorkers: lanes}); err != nil {
						b.Fatal(err)
					}
				}
				b.StartTimer()
				if _, err := p.Eval(ctx, FromDataset(src), dst, Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
