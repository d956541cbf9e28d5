package bench

import (
	"context"
	"fmt"
	"time"

	"repro/internal/chunk"
	"repro/internal/core"
	"repro/internal/dataloader"
	"repro/internal/simnet"
	"repro/internal/storage"
	"repro/internal/tensor"
	"repro/internal/workload"
)

// AblationChunkSize sweeps the chunk target size (§3.4-3.5: the default 8MB
// trades request count against transfer granularity). Measured: epoch time
// and GET-request count streaming from simulated S3.
func AblationChunkSize(ctx context.Context, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults(400)
	samples, err := jpegSampleSet(cfg, workload.Small250())
	if err != nil {
		return nil, err
	}
	res := &Result{ID: "ablation-chunksize", Title: "chunk target size sweep, streaming from S3", Better: "lower"}
	res.Notes = append(res.Notes,
		"epoch streams raw bytes at real-time IO scale; random reads one sample per request",
		"small chunks pay per-request latency on scans; huge chunks pay full-chunk transfer on point reads")
	profile := simnet.S3SameRegion()
	profile.TimeScale = 1 // real-time IO so the trade-off is visible
	for _, target := range []int{64 << 10, 256 << 10, 1 << 20, 8 << 20, 32 << 20} {
		bounds := chunk.Bounds{Min: target / 2, Target: target, Max: target * 2}
		inner := storage.NewSimObjectStore(profile)
		counting := storage.NewCounting(inner)
		ds, err := ingestDeepLake(ctx, counting, samples, bounds)
		if err != nil {
			return nil, err
		}
		counting.Reset()
		n, dur, err := deepLakeEpochOpts(ctx, ds, cfg.Workers, false, true)
		if err != nil {
			return nil, err
		}
		if n != cfg.N {
			return nil, fmt.Errorf("chunksize %d: delivered %d/%d", target, n, cfg.N)
		}
		// Random point reads: one sample from each of 8 positions,
		// through a cold loader cache (tensor.At fetches the chunk).
		randStart := time.Now()
		img := ds.Tensor("images")
		for k := 0; k < 8; k++ {
			idx := uint64(k * (cfg.N / 8))
			if _, err := img.At(ctx, idx); err != nil {
				return nil, err
			}
		}
		randDur := time.Since(randStart)
		res.Rows = append(res.Rows, Row{
			Name:  fmt.Sprintf("target-%s", byteSize(target)),
			Value: dur.Seconds(), Unit: "s",
			Extra: fmt.Sprintf("%d GETs; 8 point reads %.3fs", counting.Requests(), randDur.Seconds()),
		})
	}
	return res, nil
}

// AblationShuffleBuffer sweeps the shuffle buffer (§3.5: buffer cache of
// fetched-but-unused data instead of a shuffle cluster). Measured: epoch
// time and shuffle quality (mean normalized displacement; 0 = sequential,
// ~0.33 = uniform shuffle).
func AblationShuffleBuffer(ctx context.Context, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults(1000)
	samples, err := jpegSampleSet(cfg, workload.ImageSpec{Height: 64, Width: 64, Channels: 3, Seed: 12})
	if err != nil {
		return nil, err
	}
	profile := simnet.S3SameRegion()
	profile.TimeScale = 1
	store := storage.NewSimObjectStore(profile)
	ds, err := ingestDeepLake(ctx, store, samples, chunk.Bounds{Min: 128 << 10, Target: 256 << 10, Max: 512 << 10})
	if err != nil {
		return nil, err
	}
	res := &Result{ID: "ablation-shufflebuffer", Title: "shuffle buffer size: epoch time vs shuffle quality (remote store)", Better: "lower"}
	res.Notes = append(res.Notes,
		"displacement 0 = sequential order, ~0.33 = uniform shuffle",
		"chunk-aware shuffling keeps fetch locality even at large buffers (§3.5)")
	for _, buf := range []int{1, 16, 128, 1024} {
		l := dataloader.ForDataset(ds, dataloader.Options{
			BatchSize: 32, Workers: cfg.Workers, Shuffle: true, ShuffleBuffer: buf, Seed: 7,
			RawBytes: true,
		})
		n := 0
		start := time.Now()
		for b := range l.Batches(ctx) {
			n += len(b.Samples)
		}
		if err := l.Err(); err != nil {
			return nil, err
		}
		dur := time.Since(start)
		if n != cfg.N {
			return nil, fmt.Errorf("shufflebuffer %d: delivered %d/%d", buf, n, cfg.N)
		}
		hits, misses := l.CacheStats()
		quality := shuffleQuality(ctx, ds, buf)
		res.Rows = append(res.Rows, Row{
			Name:  fmt.Sprintf("buffer-%d", buf),
			Value: dur.Seconds(), Unit: "s",
			Extra: fmt.Sprintf("displacement %.3f, cache %d/%d hits", quality, hits, hits+misses),
		})
	}
	return res, nil
}

// shuffleQuality computes mean |position - original| / N over the shuffled
// visit order (0 = sequential, ~0.33 = uniform permutation).
func shuffleQuality(ctx context.Context, ds *core.Dataset, buf int) float64 {
	n := int(ds.NumRows())
	if n == 0 {
		return 0
	}
	order := dataloader.VisitOrder(ds, true, buf, 7)
	var sum float64
	for pos, row := range order {
		d := float64(pos - row)
		if d < 0 {
			d = -d
		}
		sum += d
	}
	return sum / float64(n) / float64(n)
}

// AblationWorkers sweeps loader worker count (§4.6 scheduler sizing).
func AblationWorkers(ctx context.Context, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults(800)
	samples, err := jpegSampleSet(cfg, workload.Small250())
	if err != nil {
		return nil, err
	}
	store := storage.NewMemory()
	ds, err := ingestDeepLake(ctx, store, samples, chunk.DefaultBounds())
	if err != nil {
		return nil, err
	}
	res := &Result{ID: "ablation-workers", Title: "dataloader worker scaling", Better: "higher"}
	for _, w := range []int{1, 2, 4, 8, 16} {
		n, dur, err := deepLakeEpoch(ctx, ds, w, false)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, Row{
			Name:  fmt.Sprintf("workers-%d", w),
			Value: float64(n) / dur.Seconds(), Unit: "img/s",
		})
	}
	return res, nil
}

// AblationVersionDepth measures dataset-open latency against commit-chain
// depth: the resolved chunk→version map (§4.2) rides the root snapshot, so
// open reads two objects at any depth and only the map's size grows.
func AblationVersionDepth(ctx context.Context, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults(50)
	res := &Result{ID: "ablation-versiondepth", Title: "dataset open latency vs commit depth", Better: "lower"}
	for _, depth := range []int{1, 8, 32, 64} {
		store := storage.NewMemory()
		ds, err := core.Create(ctx, store, "versions")
		if err != nil {
			return nil, err
		}
		x, err := ds.CreateTensor(ctx, core.TensorSpec{Name: "x", Dtype: tensor.Int32,
			Bounds: chunk.Bounds{Min: 64, Target: 128, Max: 256}})
		if err != nil {
			return nil, err
		}
		for d := 0; d < depth; d++ {
			for k := 0; k < cfg.N/depth+1; k++ {
				if err := x.Append(ctx, tensor.Scalar(tensor.Int32, float64(d))); err != nil {
					return nil, err
				}
			}
			if _, err := ds.Commit(ctx, fmt.Sprintf("commit %d", d)); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		reopened, err := core.Open(ctx, store)
		if err != nil {
			return nil, err
		}
		openDur := time.Since(start)
		// Post-open read latency stays flat.
		start = time.Now()
		if _, err := reopened.Tensor("x").At(ctx, 0); err != nil {
			return nil, err
		}
		readDur := time.Since(start)
		res.Rows = append(res.Rows, Row{
			Name:  fmt.Sprintf("depth-%d", depth),
			Value: openDur.Seconds() * 1000, Unit: "ms",
			Extra: fmt.Sprintf("first read %.3fms", float64(readDur.Microseconds())/1000),
		})
	}
	return res, nil
}

func byteSize(n int) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%dMB", n>>20)
	case n >= 1<<10:
		return fmt.Sprintf("%dKB", n>>10)
	}
	return fmt.Sprintf("%dB", n)
}
