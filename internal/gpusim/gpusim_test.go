package gpusim

import (
	"context"
	"testing"
	"time"

	"repro/internal/chunk"
	"repro/internal/core"
	"repro/internal/dataloader"
	"repro/internal/storage"
	"repro/internal/tensor"
)

func smallDataset(t testing.TB, n int) *core.Dataset {
	t.Helper()
	ctx := context.Background()
	ds, err := core.Create(ctx, storage.NewMemory(), "gpusim")
	if err != nil {
		t.Fatal(err)
	}
	x, _ := ds.CreateTensor(ctx, core.TensorSpec{
		Name: "x", Dtype: tensor.Int32,
		Bounds: chunk.Bounds{Min: 256, Target: 512, Max: 1024},
	})
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

func TestTrainConsumesWholeEpoch(t *testing.T) {
	ds := smallDataset(t, 64)
	l := dataloader.ForDataset(ds, dataloader.Options{BatchSize: 8, Workers: 4})
	gpu := GPU{ComputePerBatch: time.Millisecond, TimeScale: 1000}
	tl := gpu.Train(context.Background(), l, 0)
	if tl.Batches != 8 || tl.Rows != 64 {
		t.Fatalf("batches=%d rows=%d", tl.Batches, tl.Rows)
	}
	if tl.ComputeTime != 8*time.Millisecond {
		t.Fatalf("compute = %v", tl.ComputeTime)
	}
	if tl.Utilization() <= 0 || tl.Utilization() > 1 {
		t.Fatalf("utilization = %v", tl.Utilization())
	}
}

func TestMaxBatchesStopsEarly(t *testing.T) {
	ds := smallDataset(t, 64)
	l := dataloader.ForDataset(ds, dataloader.Options{BatchSize: 8, Workers: 2})
	gpu := GPU{ComputePerBatch: time.Millisecond, TimeScale: 1000}
	tl := gpu.Train(context.Background(), l, 3)
	if tl.Batches != 3 {
		t.Fatalf("batches = %d, want 3", tl.Batches)
	}
}

func TestFastLoaderKeepsGPUBusy(t *testing.T) {
	// With an in-memory store and heavy per-batch compute, stall should
	// be a small fraction: utilization near 1.
	ds := smallDataset(t, 128)
	l := dataloader.ForDataset(ds, dataloader.Options{BatchSize: 16, Workers: 4})
	gpu := GPU{ComputePerBatch: 20 * time.Millisecond, TimeScale: 10}
	tl := gpu.Train(context.Background(), l, 0)
	if u := tl.Utilization(); u < 0.5 {
		t.Fatalf("utilization = %.2f; in-memory loader should keep the GPU mostly busy", u)
	}
	if tl.RowsPerSec() <= 0 {
		t.Fatalf("throughput = %v", tl.RowsPerSec())
	}
}

func TestTimelineRecordsSamples(t *testing.T) {
	ds := smallDataset(t, 64)
	l := dataloader.ForDataset(ds, dataloader.Options{BatchSize: 4, Workers: 2})
	gpu := GPU{ComputePerBatch: 5 * time.Millisecond, TimeScale: 1000}
	tl := gpu.Train(context.Background(), l, 0)
	if len(tl.Samples) == 0 {
		t.Fatal("no utilization samples recorded")
	}
	for i, s := range tl.Samples {
		if s.Busy < 0 || s.Busy > 1 {
			t.Fatalf("sample %d busy = %v", i, s.Busy)
		}
		if i > 0 && s.Offset < tl.Samples[i-1].Offset {
			t.Fatal("timeline offsets not monotone")
		}
	}
}

func TestFleetRunsAllGPUs(t *testing.T) {
	n := 4
	gpus := make([]GPU, n)
	loaders := make([]BatchSource, n)
	for i := range gpus {
		gpus[i] = GPU{ComputePerBatch: time.Millisecond, TimeScale: 1000}
		ds := smallDataset(t, 32)
		loaders[i] = dataloader.ForDataset(ds, dataloader.Options{BatchSize: 8, Workers: 2})
	}
	timelines := Fleet(context.Background(), gpus, loaders, 0)
	if len(timelines) != n {
		t.Fatalf("timelines = %d", len(timelines))
	}
	for i, tl := range timelines {
		if tl == nil || tl.Rows != 32 {
			t.Fatalf("gpu %d timeline = %+v", i, tl)
		}
	}
}
