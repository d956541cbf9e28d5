package transform

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/chunk"
	"repro/internal/core"
	"repro/internal/simnet"
	"repro/internal/storage"
	"repro/internal/tensor"
)

var smallBounds = chunk.Bounds{Min: 64, Target: 128, Max: 256}

// flushOnCleanup flushes ds when the test ends and waits for the goroutines
// started since ds was created to exit, so no upload a failed run left in
// flight outlives the test that started it and the next test counts
// goroutines from a settled start.
func flushOnCleanup(t testing.TB, ds *core.Dataset) {
	n := moduleGoroutines()
	t.Cleanup(func() {
		if err := ds.Flush(context.Background()); err != nil {
			t.Error(err)
		}
		settledGoroutines(n)
	})
}

func sourceDataset(t testing.TB, n int) *core.Dataset {
	t.Helper()
	ctx := context.Background()
	ds, err := core.Create(ctx, storage.NewMemory(), "src")
	if err != nil {
		t.Fatal(err)
	}
	flushOnCleanup(t, ds)
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
	flushOnCleanup(t, ds)
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
	stats, err := p.Eval(ctx, FromDataset(src), dst, Options{Workers: 4})
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
	stats, err := p.Eval(ctx, FromDataset(src), dst, Options{Workers: 2})
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
	stats, err := p.Eval(ctx, src, dst, Options{Workers: 4})
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
	if _, err := p.Eval(ctx, FromDataset(src), dst, Options{Workers: 4}); !errors.Is(err, boom) {
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

// failAt returns a pipeline that adds 1000 to x and fails on the row whose
// x is k.
func failAt(k float64, boom error) *Pipeline {
	return Compute(func(in Sample, out *Collector) error {
		v, _ := in["x"].Item()
		if v == k {
			return boom
		}
		out.Emit(Sample{"x": tensor.Scalar(tensor.Int32, v+1000)})
		return nil
	})
}

// moduleGoroutines counts the goroutines running this module's code or
// started by it. The testing package's own are left out: the runner of the
// test before this one can still be exiting when this one starts, and its
// exit would read as a change in the count.
func moduleGoroutines() int {
	buf := make([]byte, 1<<20)
	n := 0
	for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
		if strings.Contains(g, "repro/internal/") {
			n++
		}
	}
	return n
}

// settledGoroutines reports moduleGoroutines once it is at most want,
// yielding until then for up to five seconds. A goroutine that has
// signalled its WaitGroup is still counted until the scheduler runs it to
// its exit, which can lag a join; a leaked goroutine never leaves.
func settledGoroutines(want int) int {
	deadline := time.Now().Add(5 * time.Second)
	n := moduleGoroutines()
	for n > want && time.Now().Before(deadline) {
		runtime.Gosched()
		n = moduleGoroutines()
	}
	return n
}

// TestFailedEvalJoinsItsGoroutines checks that a failing Eval and a failing
// EvalInPlace return only after every goroutine they started has exited.
// Neither run seals a chunk, so no uploader runs: Eval appends at most 5
// int32 rows, below smallBounds.Min, and EvalInPlace rewrites rows of a
// dataset whose every row is still in its write buffer.
func TestFailedEvalJoinsItsGoroutines(t *testing.T) {
	ctx := context.Background()
	boom := errors.New("bad input")
	start := moduleGoroutines()
	src := sourceDataset(t, 400)
	dst := destDataset(t)
	if _, err := dst.CreateTensor(ctx, core.TensorSpec{Name: "x", Dtype: tensor.Int32, Bounds: smallBounds}); err != nil {
		t.Fatal(err)
	}
	buffered := destDataset(t)
	x, err := buffered.CreateTensor(ctx, core.TensorSpec{Name: "x", Dtype: tensor.Int32,
		Bounds: chunk.Bounds{Min: 1 << 12, Target: 1 << 13, Max: 1 << 14}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 400; i++ {
		if err := x.Append(ctx, tensor.Scalar(tensor.Int32, float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	// The setup's uploads have landed; count once their goroutines are gone.
	before := settledGoroutines(start)
	if _, err := failAt(5, boom).Eval(ctx, FromDataset(src), dst, Options{Workers: 4}); !errors.Is(err, boom) {
		t.Fatalf("Eval err = %v, want %v", err, boom)
	}
	if after := settledGoroutines(before); after != before {
		t.Fatalf("failed Eval left %d goroutines behind", after-before)
	}
	if _, err := failAt(5, boom).EvalInPlace(ctx, buffered, Options{Workers: 4}); !errors.Is(err, boom) {
		t.Fatalf("EvalInPlace err = %v, want %v", err, boom)
	}
	if after := settledGoroutines(before); after != before {
		t.Fatalf("failed EvalInPlace left %d goroutines behind", after-before)
	}
}

// poolWorkers reports how many goroutines are inside a run's worker, the
// core.Walk worker frame, yielding until there are none for up to five
// seconds: a worker that has signalled its WaitGroup is still listed until
// the scheduler runs it to its exit, but a leaked one never leaves. Unlike a
// goroutine count, it does not depend on what else the process runs.
func poolWorkers() int {
	deadline := time.Now().Add(5 * time.Second)
	buf := make([]byte, 1<<20)
	for {
		dump := string(buf[:runtime.Stack(buf, true)])
		n := strings.Count(dump, "core.(*walk[...]).work(")
		if n == 0 || time.Now().After(deadline) {
			return n
		}
		runtime.Gosched()
	}
}

// TestGoexitInTransformFailsTheRun checks that a Fn ending its goroutine with
// runtime.Goexit, as t.Fatal inside a transform does, fails Eval and
// EvalInPlace with ErrWorkerDied naming the row, with every row before it
// committed and every worker joined, at any worker count. A dying worker that
// leaves its batch unfinished makes this test hang until -timeout.
func TestGoexitInTransformFailsTheRun(t *testing.T) {
	ctx := context.Background()
	const n, k = 400, 37
	exitAt := Compute(func(in Sample, out *Collector) error {
		v, _ := in["x"].Item()
		if v == k {
			runtime.Goexit()
		}
		out.Emit(Sample{"x": tensor.Scalar(tensor.Int32, v+1000)})
		return nil
	})
	died := func(t *testing.T, err error) {
		t.Helper()
		if !errors.Is(err, ErrWorkerDied) || !strings.Contains(err.Error(), fmt.Sprintf("at row %d", k)) {
			t.Fatalf("err = %v, want %v at row %d", err, ErrWorkerDied, k)
		}
	}
	for _, workers := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			src := sourceDataset(t, n)
			dst := destDataset(t)
			if _, err := dst.CreateTensor(ctx, core.TensorSpec{Name: "x", Dtype: tensor.Int32, Bounds: smallBounds}); err != nil {
				t.Fatal(err)
			}

			_, err := exitAt.Eval(ctx, FromDataset(src), dst, Options{Workers: workers})
			died(t, err)
			if got := dst.Tensor("x").Len(); got != k {
				t.Fatalf("Eval committed %d rows, want the %d before the dying one", got, k)
			}
			if left := poolWorkers(); left != 0 {
				t.Fatalf("Eval left %d workers behind", left)
			}

			_, err = exitAt.EvalInPlace(ctx, src, Options{Workers: workers})
			died(t, err)
			if left := poolWorkers(); left != 0 {
				t.Fatalf("EvalInPlace left %d workers behind", left)
			}
			for _, i := range []int{0, k - 1, k, n - 1} {
				arr, err := src.Tensor("x").At(ctx, uint64(i))
				if err != nil {
					t.Fatal(err)
				}
				v, _ := arr.Item()
				want := float64(i)
				if i < k {
					want += 1000
				}
				if v != want {
					t.Fatalf("x[%d] = %v, want %v", i, v, want)
				}
			}
		})
	}
}

// TestFailedEvalInPlaceRewritesOnlyEarlierRows checks that EvalInPlace
// rewrites rows in input order: when row k fails, every row before it has
// been rewritten and every row after it is untouched, at any worker count.
func TestFailedEvalInPlaceRewritesOnlyEarlierRows(t *testing.T) {
	ctx := context.Background()
	boom := errors.New("bad input")
	const n = 400
	for _, workers := range []int{1, 2, 8} {
		for _, k := range []int{5, 37} {
			t.Run(fmt.Sprintf("workers=%d/k=%d", workers, k), func(t *testing.T) {
				ds := sourceDataset(t, n)
				if _, err := failAt(float64(k), boom).EvalInPlace(ctx, ds, Options{Workers: workers}); !errors.Is(err, boom) {
					t.Fatalf("err = %v, want %v", err, boom)
				}
				for i := 0; i < n; i++ {
					arr, err := ds.Tensor("x").At(ctx, uint64(i))
					if err != nil {
						t.Fatal(err)
					}
					v, _ := arr.Item()
					want := float64(i)
					if i < k {
						want += 1000
					}
					if v != want {
						t.Fatalf("x[%d] = %v, want %v", i, v, want)
					}
				}
			})
		}
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

// BenchmarkEvalIdentity copies one int32 column through an identity
// pipeline at two workers, beside view's BenchmarkMaterialize: ns/row stays
// flat as the rows per chunk grow, because every row after a chunk's first
// reads it decoded.
func BenchmarkEvalIdentity(b *testing.B) {
	ctx := context.Background()
	identity := Compute(func(in Sample, out *Collector) error {
		out.Emit(Sample{"x": in["x"]})
		return nil
	})
	for _, n := range []int{4096, 16384, 65536} {
		b.Run(fmt.Sprintf("rows=%d", n), func(b *testing.B) {
			src, err := core.Create(ctx, storage.NewMemory(), "src")
			if err != nil {
				b.Fatal(err)
			}
			x, err := src.CreateTensor(ctx, core.TensorSpec{Name: "x", Dtype: tensor.Int32, Bounds: chunk.DefaultBounds()})
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < n; i++ {
				if err := x.Append(ctx, tensor.Scalar(tensor.Int32, float64(i))); err != nil {
					b.Fatal(err)
				}
			}
			if err := src.Flush(ctx); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				dst, err := core.Create(ctx, storage.NewMemory(), "dst")
				if err != nil {
					b.Fatal(err)
				}
				if _, err := dst.CreateTensor(ctx, core.TensorSpec{Name: "x", Dtype: tensor.Int32, Bounds: chunk.DefaultBounds()}); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if _, err := identity.Eval(ctx, FromDataset(src), dst, Options{Workers: 2}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/row")
		})
	}
}
