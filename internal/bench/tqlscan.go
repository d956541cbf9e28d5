package bench

import (
	"context"
	"fmt"
	"time"

	"repro/internal/chunk"
	"repro/internal/core"
	"repro/internal/simnet"
	"repro/internal/storage"
	"repro/internal/tql"
	"repro/internal/workload"
)

// TQLScan measures the chunk-partitioned parallel TQL scan engine over
// simulated S3: filter-scan throughput with 1, 4 and 16 workers on a cold
// sharded cache (a data-touching WHERE must fetch and decode every chunk,
// so workers overlap origin latency), then the shape-encoder pushdown's
// origin-request count for a shape-only WHERE (must be 0) against the same
// query forced through a full data scan.
func TQLScan(ctx context.Context, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults(384)
	res := &Result{
		ID:     "tql",
		Title:  "TQL parallel chunk scan + shape-encoder pushdown on S3",
		Better: "higher",
	}
	res.Notes = append(res.Notes,
		"filter-workers-N scans a data-touching WHERE (MEAN(images)) over a cold sharded cache on simulated S3",
		"pushdown-origin-requests is the origin traffic of a shape-only WHERE; 0 = answered entirely from the shape encoder",
		"fullscan-origin-requests is the same shape-only WHERE with pushdown disabled (shapes measured from decoded chunk data)",
		"strip-origin-requests is the cold 16-worker filter scan's origin traffic; cross-partition strips must cost strictly fewer requests than the distinct chunks planned, for the serial scan's row set")

	// Tiny raw images in small chunks at a mild time compression: the
	// filter scan spans many chunks and per-request origin latency dwarfs
	// the per-row compute, so the worker fan-out (not CPU core count)
	// sets the scaling — the regime a real S3 scan lives in.
	spec := workload.ImageSpec{Height: 16, Width: 16, Channels: 3, Seed: cfg.Seed}
	samples := rawSampleSet(cfg, spec)
	bounds := chunk.Bounds{Min: 2 << 10, Target: 4 << 10, Max: 8 << 10}

	profile := simnet.S3SameRegion()
	profile.TimeScale = 10 // ~1.5ms first byte: latency-bound like real S3
	origin := storage.NewSimObjectStore(profile)
	counting := storage.NewCounting(origin)
	if _, err := ingestDeepLake(ctx, counting, samples, bounds); err != nil {
		return nil, err
	}

	const dataQuery = `SELECT labels FROM bench WHERE MEAN(images) >= 0`
	openCold := func() (*core.Dataset, error) {
		cached := storage.NewShardedLRU(counting, 1<<30, storage.DefaultShards)
		ds, err := core.Open(ctx, cached)
		if err != nil {
			return nil, err
		}
		counting.Reset()
		return ds, nil
	}

	// The 16-worker run doubles as the strip scheduler's IO-shape gate:
	// strips pack chunks owned by different workers into shared coalesced
	// batches, so the scan must cost strictly fewer origin requests than the
	// distinct chunks it planned, for exactly the serial scan's rows.
	var serial float64
	var serialRows []uint64
	for _, workers := range []int{1, 4, 16} {
		ds, err := openCold()
		if err != nil {
			return nil, err
		}
		var stats tql.ScanStats
		start := time.Now()
		v, err := tql.RunWith(ctx, ds, dataQuery, tql.Options{Workers: workers, Stats: &stats})
		if err != nil {
			return nil, err
		}
		elapsed := time.Since(start).Seconds()
		if v.Len() != cfg.N {
			return nil, fmt.Errorf("filter-workers-%d returned %d/%d rows", workers, v.Len(), cfg.N)
		}
		throughput := float64(cfg.N) / elapsed
		reqs := counting.Requests()
		if workers == 1 {
			serial, serialRows = throughput, v.Indices()
		}
		extra := fmt.Sprintf("%d origin requests", reqs)
		if workers > 1 && serial > 0 {
			extra += fmt.Sprintf(", %.1fx vs serial", throughput/serial)
		}
		res.Rows = append(res.Rows, Row{
			Name:  fmt.Sprintf("filter-workers-%d", workers),
			Value: throughput, Unit: "rows/s",
			Extra: extra,
		})
		if workers != 16 {
			continue
		}
		if !equalRows(v.Indices(), serialRows) {
			return nil, fmt.Errorf("16-worker scan and serial scan disagree: %d vs %d rows", v.Len(), len(serialRows))
		}
		res.Rows = append(res.Rows, Row{
			Name: "strip-origin-requests", Value: float64(reqs), Unit: "reqs",
			Extra: fmt.Sprintf("16 workers, %s", &stats),
		})
		if reqs >= stats.PrefetchPlanned() {
			return nil, fmt.Errorf("cross-partition strips cost %d origin requests for %d planned chunks; strips must coalesce", reqs, stats.PrefetchPlanned())
		}
	}

	// Shape-encoder pushdown vs forced full scan: identical results,
	// radically different origin traffic.
	const shapeQuery = `SELECT labels FROM bench WHERE SHAPE(images)[0] >= 1 AND NDIM(images) == 3`
	ds, err := openCold()
	if err != nil {
		return nil, err
	}
	pv, err := tql.RunWith(ctx, ds, shapeQuery, tql.Options{Workers: 16})
	if err != nil {
		return nil, err
	}
	pushGets := counting.Requests()
	res.Rows = append(res.Rows, Row{
		Name: "pushdown-origin-requests", Value: float64(pushGets), Unit: "reqs",
		Extra: fmt.Sprintf("%d rows matched, %d chunk Gets (0 = pure shape-encoder answer)", pv.Len(), counting.Snapshot().Gets),
	})

	ds, err = openCold()
	if err != nil {
		return nil, err
	}
	fv, err := tql.RunWith(ctx, ds, shapeQuery, tql.Options{Workers: 16, DisablePushdown: true})
	if err != nil {
		return nil, err
	}
	fullGets := counting.Requests()
	if pv.Len() != fv.Len() {
		return nil, fmt.Errorf("pushdown returned %d rows, full scan %d", pv.Len(), fv.Len())
	}
	res.Rows = append(res.Rows, Row{
		Name: "fullscan-origin-requests", Value: float64(fullGets), Unit: "reqs",
		Extra: fmt.Sprintf("%d rows matched, identical result set", fv.Len()),
	})
	if pushGets != 0 {
		return nil, fmt.Errorf("shape-only WHERE reached the origin %d times; pushdown must do zero chunk IO", pushGets)
	}
	return res, nil
}

func equalRows(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
