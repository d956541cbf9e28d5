// Command benchfig regenerates the paper's evaluation figures (§6) as text
// tables: Fig 6 (ingestion across formats), Fig 7 (local dataloaders),
// Fig 8 (storage locations), Fig 9 (ImageNet training modes on S3), Fig 10
// (distributed CLIP-like training utilization), plus the ablation sweeps
// and the subsystem scenarios (concurrent readers, TQL scan, parallel
// ingest, end-to-end train loop).
//
// With -json, every scenario additionally writes a machine-readable
// BENCH_<scenario>.json (series rows plus config) under -json-dir, so the
// perf trajectory is recorded per PR.
//
// Usage:
//
//	benchfig [-n N] [-workers W] [-side PX] [-json [-json-dir DIR]] [-ranks R] \
//	         [fig6|fig7|fig8|fig9|fig10|readers|tql|ingest|train|ablations|all]
//
// -ranks (train scenario) sets how many rank-sharded loaders run colocated
// on one simulated node, all sharing one node-level decoded-chunk cache; the
// runner asserts each shared chunk is fetched+decoded once per NODE (not
// once per rank), and a kill+reopen pass over the local-disk tier must show
// a nonzero warm-start hit rate with byte-identical batches.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/bench"
)

type runner struct {
	name string
	def  int // default N at CLI scale
	fn   func(context.Context, bench.Config) (*bench.Result, error)
}

func main() {
	n := flag.Int("n", 0, "sample count (0 = per-figure default)")
	workers := flag.Int("workers", 8, "loader/ingest parallelism")
	side := flag.Int("side", 0, "override synthetic image edge length (0 = figure default)")
	seed := flag.Int64("seed", 1, "workload seed")
	ranks := flag.Int("ranks", 0, "train: same-node rank loaders sharing one node-level chunk cache (0 = default 4); the runner enforces per-node decode-once across them")
	jsonOut := flag.Bool("json", false, "write BENCH_<scenario>.json with the measured series")
	jsonDir := flag.String("json-dir", ".", "directory for -json output")
	flag.Parse()

	targets := flag.Args()
	if len(targets) == 0 {
		targets = []string{"all"}
	}

	runners := []runner{
		{"fig6", 64, bench.Fig6Ingestion},
		{"fig7", 2000, bench.Fig7LocalLoaders},
		{"fig8", 800, bench.Fig8StorageLocations},
		{"fig9", 600, bench.Fig9ImageNetCloud},
		{"fig10", 2048, bench.Fig10DistributedCLIP},
		{"readers", 384, bench.ConcurrentReaders},
		{"tql", 384, bench.TQLScan},
		{"ingest", 384, bench.IngestThroughput},
		{"train", 384, bench.TrainStream},
		{"chaos", 384, bench.Chaos},
	}
	ablations := []runner{
		{"ablation-chunksize", 400, bench.AblationChunkSize},
		{"ablation-shufflebuffer", 1000, bench.AblationShuffleBuffer},
		{"ablation-workers", 800, bench.AblationWorkers},
		{"ablation-versiondepth", 50, bench.AblationVersionDepth},
		{"ablation-sparseviews", 600, bench.AblationSparseViews},
		{"ablation-cache", 600, bench.AblationCacheEpochs},
	}

	want := map[string]bool{}
	for _, t := range targets {
		want[t] = true
	}
	run := func(r runner) {
		cfg := bench.Config{N: *n, Workers: *workers, ImageSide: *side, Seed: *seed, Ranks: *ranks}
		if cfg.N == 0 {
			cfg.N = r.def
		}
		start := time.Now()
		res, err := r.fn(context.Background(), cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", r.name, err)
			os.Exit(1)
		}
		elapsed := time.Since(start)
		fmt.Print(res.Format())
		fmt.Printf("  (completed in %s)\n\n", elapsed.Round(time.Millisecond))
		if r.name == "train" {
			if err := trainGate(res); err != nil {
				fmt.Fprintf(os.Stderr, "%s: %v\n", r.name, err)
				os.Exit(1)
			}
		}
		if *jsonOut {
			path, err := res.WriteJSON(*jsonDir, cfg, elapsed)
			if err != nil {
				fmt.Fprintf(os.Stderr, "%s: writing json: %v\n", r.name, err)
				os.Exit(1)
			}
			fmt.Printf("  wrote %s\n\n", path)
		}
	}
	for _, r := range runners {
		if want["all"] || want[r.name] {
			run(r)
		}
	}
	for _, r := range ablations {
		if want["all"] || want["ablations"] || want[r.name] {
			run(r)
		}
	}
}

// trainGate is the train scenario's absolute-throughput gate: 16-worker
// streaming must match or beat both format baselines in samples/sec, not
// merely scale over its own serial path. It compares wall clocks, so it
// lives here and not in the runner, which `go test` also executes.
func trainGate(res *bench.Result) error {
	w16, ok := res.Value("workers-16")
	if !ok {
		return fmt.Errorf("workers-16 row missing")
	}
	for _, name := range []string{"tfrecord", "webdataset"} {
		base, ok := res.Value(name)
		if !ok {
			return fmt.Errorf("%s baseline row missing", name)
		}
		if w16 < base {
			return fmt.Errorf("16-worker streaming %.0f smp/s is below the %s baseline %.0f smp/s", w16, name, base)
		}
	}
	return nil
}
