package deeplake

// testing.B benchmarks, one per evaluation figure and ablation of the paper
// (§6). Each delegates to internal/bench with a bench-friendly sample count;
// cmd/benchfig runs the same experiments at full scale and prints the series
// tables. They regenerate figures; the repo's regression benchmark is
// benchmarks/lakebench. Run with:
//
//	go test -bench=. -benchmem
import (
	"context"
	"testing"

	"repro/internal/bench"
)

// benchConfig keeps each testing.B iteration in the hundreds of
// milliseconds while preserving the figure's qualitative shape.
func benchConfig(n, side int) bench.Config {
	return bench.Config{N: n, Workers: 8, ImageSide: side, Seed: 1}
}

func runFigure(b *testing.B, cfg bench.Config, fn func(context.Context, bench.Config) (*bench.Result, error)) {
	b.Helper()
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := fn(ctx, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) == 0 {
			b.Fatal("no measurements")
		}
	}
}

// BenchmarkFig6Ingestion regenerates Fig 6: ingestion speed of raw images
// into Deep Lake vs WebDataset, Beton/FFCV, Zarr, N5, TFRecord, Squirrel
// and file-per-sample.
func BenchmarkFig6Ingestion(b *testing.B) {
	runFigure(b, benchConfig(16, 256), bench.Fig6Ingestion)
}

// BenchmarkFig7LocalLoaders regenerates Fig 7: dataloader iteration speed
// over JPEG images on local storage.
func BenchmarkFig7LocalLoaders(b *testing.B) {
	runFigure(b, benchConfig(256, 64), bench.Fig7LocalLoaders)
}

// BenchmarkFig8StorageLocations regenerates Fig 8: streaming the same
// dataset from local disk, S3 and MinIO-LAN cost models.
func BenchmarkFig8StorageLocations(b *testing.B) {
	runFigure(b, benchConfig(128, 64), bench.Fig8StorageLocations)
}

// BenchmarkFig9ImageNetCloud regenerates Fig 9: epoch timelines for AWS
// File Mode, Fast File Mode, Deep Lake streaming, and local training.
func BenchmarkFig9ImageNetCloud(b *testing.B) {
	runFigure(b, benchConfig(96, 64), bench.Fig9ImageNetCloud)
}

// BenchmarkFig10DistributedCLIP regenerates Fig 10: 16 simulated GPUs
// training over a cross-region multimodal dataset.
func BenchmarkFig10DistributedCLIP(b *testing.B) {
	runFigure(b, benchConfig(512, 48), bench.Fig10DistributedCLIP)
}

// BenchmarkAblationChunkSize sweeps the chunk target size (§3.5 default
// 8MB) against epoch time and request count on S3.
func BenchmarkAblationChunkSize(b *testing.B) {
	runFigure(b, benchConfig(64, 64), bench.AblationChunkSize)
}

// BenchmarkAblationShuffleBuffer sweeps the shuffle buffer size against
// throughput and shuffle quality (§3.5 buffer-based shuffling).
func BenchmarkAblationShuffleBuffer(b *testing.B) {
	runFigure(b, benchConfig(256, 32), bench.AblationShuffleBuffer)
}

// BenchmarkAblationWorkers sweeps loader worker counts (§4.6 scheduler).
func BenchmarkAblationWorkers(b *testing.B) {
	runFigure(b, benchConfig(128, 48), bench.AblationWorkers)
}

// BenchmarkAblationVersionDepth measures dataset-open latency against
// commit-chain depth (§4.2 chunk resolution walk).
func BenchmarkAblationVersionDepth(b *testing.B) {
	runFigure(b, benchConfig(48, 0), bench.AblationVersionDepth)
}

// BenchmarkAblationSparseViews compares streaming a sparse query view with
// its materialized twin (§4.5 materialization).
func BenchmarkAblationSparseViews(b *testing.B) {
	runFigure(b, benchConfig(200, 64), bench.AblationSparseViews)
}

// BenchmarkAblationCacheEpochs measures the LRU-over-S3 provider chain
// across epochs (§3.6 memory caching by chaining storage providers).
func BenchmarkAblationCacheEpochs(b *testing.B) {
	runFigure(b, benchConfig(128, 64), bench.AblationCacheEpochs)
}
