package bench

import (
	"context"
	"fmt"
	"time"

	"repro/internal/chunk"
	"repro/internal/dataloader"
	"repro/internal/simnet"
	"repro/internal/storage"
	"repro/internal/tql"
	"repro/internal/transform"
	"repro/internal/view"
	"repro/internal/workload"
)

// AblationSparseViews quantifies §4.5: a query view selecting scattered
// rows streams sub-optimally (every touched chunk is fetched for a few
// samples), while materializing the view re-packs it into dense chunks that
// stream with minimal transfer. Measured: epoch time and bytes transferred
// for the sparse view vs its materialized twin, both on simulated S3.
func AblationSparseViews(ctx context.Context, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults(600)
	samples, err := jpegSampleSet(cfg, workload.Small250())
	if err != nil {
		return nil, err
	}
	res := &Result{ID: "ablation-sparseviews", Title: "sparse query view vs materialized view, streaming from S3", Better: "lower"}
	res.Notes = append(res.Notes,
		"view selects every 10th row; sparse streaming fetches whole chunks for single samples (§4.5)")

	profile := simnet.S3SameRegion()
	profile.TimeScale = 1
	inner := storage.NewSimObjectStore(profile)
	counting := storage.NewCounting(inner)
	// Small chunks so the sparse pattern touches many of them.
	ds, err := ingestDeepLake(ctx, counting, samples, chunk.Bounds{Min: 128 << 10, Target: 256 << 10, Max: 512 << 10})
	if err != nil {
		return nil, err
	}

	// The "balancing" query: every 10th sample survives the filter.
	v, err := tql.Run(ctx, ds, "SELECT images, labels FROM bench WHERE ROW() % 10 == 0")
	if err != nil {
		return nil, err
	}
	if !v.IsSparse() {
		return nil, fmt.Errorf("sparse ablation: view unexpectedly dense")
	}

	epoch := func(src *view.View) (time.Duration, int64, error) {
		counting.Reset()
		l := dataloader.New(src, dataloader.Options{BatchSize: 16, Workers: cfg.Workers, RawBytes: true})
		n := 0
		start := time.Now()
		for b := range l.Batches(ctx) {
			n += len(b.Samples)
		}
		if err := l.Err(); err != nil {
			return 0, 0, err
		}
		if n != src.Len() {
			return 0, 0, fmt.Errorf("delivered %d/%d", n, src.Len())
		}
		return time.Since(start), counting.Snapshot().BytesRead, nil
	}

	sparseDur, sparseBytes, err := epoch(v)
	if err != nil {
		return nil, err
	}
	res.Rows = append(res.Rows, Row{
		Name: "sparse-view", Value: sparseDur.Seconds(), Unit: "s",
		Extra: fmt.Sprintf("%.1f MB transferred for %d rows", float64(sparseBytes)/1e6, v.Len()),
	})
	res.Rows = append(res.Rows, Row{Name: "sparse-view-bytes", Value: float64(sparseBytes) / 1e6, Unit: "MB"})

	// Materialize onto the same class of storage, then stream.
	matInner := storage.NewSimObjectStore(profile)
	matCounting := storage.NewCounting(matInner)
	out, err := transform.Materialize(ctx, v, matCounting, "dense")
	if err != nil {
		return nil, err
	}
	counting2 := matCounting
	counting2.Reset()
	l := dataloader.ForDataset(out, dataloader.Options{BatchSize: 16, Workers: cfg.Workers, RawBytes: true})
	n := 0
	start := time.Now()
	for b := range l.Batches(ctx) {
		n += len(b.Samples)
	}
	if err := l.Err(); err != nil {
		return nil, err
	}
	matBytes := counting2.Snapshot().BytesRead
	res.Rows = append(res.Rows, Row{
		Name: "materialized-view", Value: time.Since(start).Seconds(), Unit: "s",
		Extra: fmt.Sprintf("%.1f MB transferred for %d rows", float64(matBytes)/1e6, n),
	})
	res.Rows = append(res.Rows, Row{Name: "materialized-view-bytes", Value: float64(matBytes) / 1e6, Unit: "MB"})
	return res, nil
}
