package bench

import (
	"context"
	"fmt"
	"strings"
	"testing"
)

// tiny configs keep the full figure suite runnable inside go test.
func tiny() Config { return Config{N: 24, Workers: 4, ImageSide: 48, Seed: 3} }

func TestFig6ShapeHolds(t *testing.T) {
	// Large enough that the array formats' write amplification shows
	// through the CPU noise floor.
	res, err := Fig6Ingestion(context.Background(), Config{N: 16, Workers: 4, ImageSide: 512})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 9 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if _, ok := res.Value("deeplake"); !ok {
		t.Fatal("deeplake row missing")
	}
	// The deterministic mechanism behind the paper's headline: static
	// array formats pay heavy write amplification for ragged appends.
	dlMB := mbWritten(t, res, "deeplake")
	zarrMB := mbWritten(t, res, "zarr")
	n5MB := mbWritten(t, res, "n5")
	if zarrMB < dlMB*2 || n5MB < dlMB*2 {
		t.Fatalf("array formats wrote %.1f/%.1f MB vs deeplake %.1f MB; expected >= 2x amplification", zarrMB, n5MB, dlMB)
	}
	if !strings.Contains(res.Format(), "fig6") {
		t.Fatal("formatted output missing id")
	}
}

// mbWritten parses the "X.Y MB written" annotation of a fig6 row.
func mbWritten(t *testing.T, res *Result, name string) float64 {
	t.Helper()
	for _, row := range res.Rows {
		if row.Name == name {
			var mb float64
			if _, err := fmt.Sscanf(row.Extra, "%f MB written", &mb); err != nil {
				t.Fatalf("cannot parse extra %q: %v", row.Extra, err)
			}
			return mb
		}
	}
	t.Fatalf("row %q missing", name)
	return 0
}

func TestFig7ShapeHolds(t *testing.T) {
	res, err := Fig7LocalLoaders(context.Background(), Config{N: 64, Workers: 4, ImageSide: 48})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 7 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.Value <= 0 {
			t.Fatalf("%s throughput %.1f", row.Name, row.Value)
		}
	}
}

func TestFig8ShapeHolds(t *testing.T) {
	res, err := Fig8StorageLocations(context.Background(), Config{N: 64, Workers: 8, ImageSide: 48})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, name := range []string{"deeplake/local", "deeplake/s3", "deeplake/minio-lan"} {
		if v, ok := res.Value(name); !ok || v <= 0 {
			t.Fatalf("%s row missing or non-positive: %+v", name, res.Rows)
		}
	}
}

func TestFig9ShapeHolds(t *testing.T) {
	res, err := Fig9ImageNetCloud(context.Background(), Config{N: 64, Workers: 8, ImageSide: 48})
	if err != nil {
		t.Fatal(err)
	}
	local, _ := res.Value("local")
	stream, _ := res.Value("deeplake-stream")
	fileMode, _ := res.Value("aws-file-mode")
	fastFile, _ := res.Value("aws-fast-file-mode")
	if local <= 0 || stream <= 0 || fileMode <= 0 || fastFile <= 0 {
		t.Fatalf("rows = %+v", res.Rows)
	}
	// File mode pays a copy phase: every object crosses the network before
	// the first batch.
	for _, row := range res.Rows {
		if row.Name != "aws-file-mode" {
			continue
		}
		var copied int
		if _, err := fmt.Sscanf(row.Extra, "%d objects copied first", &copied); err != nil {
			t.Fatalf("cannot parse extra %q: %v", row.Extra, err)
		}
		if copied < 64 {
			t.Fatalf("file mode copied %d objects before training, want all 64 images", copied)
		}
	}
}

func TestFig10ShapeHolds(t *testing.T) {
	res, err := Fig10DistributedCLIP(context.Background(), Config{N: 512, Workers: 4, ImageSide: 48})
	if err != nil {
		t.Fatal(err)
	}
	util, ok := res.Value("mean-gpu-utilization")
	if !ok || util <= 0 || util > 100 {
		t.Fatalf("mean utilization = %.1f%%", util)
	}
	agg, ok := res.Value("aggregate-throughput")
	if !ok || agg <= 0 {
		t.Fatalf("aggregate throughput = %v", agg)
	}
}

func TestAblations(t *testing.T) {
	ctx := context.Background()
	t.Run("chunksize", func(t *testing.T) {
		res, err := AblationChunkSize(ctx, Config{N: 32, Workers: 4, ImageSide: 48})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 5 {
			t.Fatalf("rows = %d", len(res.Rows))
		}
	})
	t.Run("shufflebuffer", func(t *testing.T) {
		res, err := AblationShuffleBuffer(ctx, Config{N: 128, Workers: 4, ImageSide: 32})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 4 {
			t.Fatalf("rows = %d", len(res.Rows))
		}
	})
	t.Run("workers", func(t *testing.T) {
		res, err := AblationWorkers(ctx, Config{N: 64, Workers: 4, ImageSide: 32})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 5 {
			t.Fatalf("rows = %d", len(res.Rows))
		}
	})
	t.Run("sparseviews", func(t *testing.T) {
		res, err := AblationSparseViews(ctx, Config{N: 200, Workers: 4, ImageSide: 64})
		if err != nil {
			t.Fatal(err)
		}
		// Assert on the mechanism (bytes moved), which is deterministic,
		// rather than wall time, which jitters under instrumentation.
		sparseB, _ := res.Value("sparse-view-bytes")
		denseB, _ := res.Value("materialized-view-bytes")
		if denseB >= sparseB {
			t.Fatalf("materialized view moved %.2fMB >= sparse %.2fMB", denseB, sparseB)
		}
	})
	t.Run("cache", func(t *testing.T) {
		res, err := AblationCacheEpochs(ctx, Config{N: 128, Workers: 4, ImageSide: 64})
		if err != nil {
			t.Fatal(err)
		}
		// The mechanism, not the wall clock: epoch 1 filled the cache, so
		// epoch 2 never reaches the origin.
		for _, row := range res.Rows {
			var reqs int
			if _, err := fmt.Sscanf(row.Extra, "%d origin requests", &reqs); err != nil {
				t.Fatalf("cannot parse extra %q: %v", row.Extra, err)
			}
			if cached := row.Name == "epoch-2"; cached != (reqs == 0) {
				t.Fatalf("%s made %d origin requests; want some cold and exactly 0 cached", row.Name, reqs)
			}
		}
	})
	t.Run("versiondepth", func(t *testing.T) {
		res, err := AblationVersionDepth(ctx, Config{N: 32, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 4 {
			t.Fatalf("rows = %d", len(res.Rows))
		}
		// Open latency grows with depth.
		d1, _ := res.Value("depth-1")
		d64, _ := res.Value("depth-64")
		if d64 <= d1 {
			t.Logf("warning: open(depth-64)=%.2fms <= open(depth-1)=%.2fms", d64, d1)
		}
	})
}

func TestResultHelpers(t *testing.T) {
	r := &Result{ID: "x", Title: "t", Better: "lower", Rows: []Row{
		{Name: "b", Value: 2, Unit: "s"},
		{Name: "a", Value: 1, Unit: "s"},
	}}
	sorted := r.Sorted()
	if sorted[0].Name != "a" {
		t.Fatalf("sorted = %v", sorted)
	}
	if _, ok := r.Value("zz"); ok {
		t.Fatal("missing row should not resolve")
	}
}
