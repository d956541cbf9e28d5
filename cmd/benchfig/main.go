// Command benchfig regenerates the paper's evaluation figures (§6) as text
// tables: Fig 6 (ingestion across formats), Fig 7 (local dataloaders),
// Fig 8 (storage locations), Fig 9 (ImageNet training modes on S3), Fig 10
// (distributed CLIP-like training utilization), plus the ablation sweeps.
// It prints and asserts nothing: the repo's regression judge is
// benchmarks/lakebench, and the contracts of the read, write and query paths
// are package tests.
//
// Usage:
//
//	benchfig [-n N] [-workers W] [-side PX] [-seed S] [fig6|...|fig10|ablation-<name>|ablations|all]...
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"repro/internal/bench"
)

type runner struct {
	name string
	def  int // default N at CLI scale
	fn   func(context.Context, bench.Config) (*bench.Result, error)
}

var figures = []runner{
	{"fig6", 64, bench.Fig6Ingestion},
	{"fig7", 2000, bench.Fig7LocalLoaders},
	{"fig8", 800, bench.Fig8StorageLocations},
	{"fig9", 600, bench.Fig9ImageNetCloud},
	{"fig10", 2048, bench.Fig10DistributedCLIP},
}

var ablations = []runner{
	{"ablation-chunksize", 400, bench.AblationChunkSize},
	{"ablation-shufflebuffer", 1000, bench.AblationShuffleBuffer},
	{"ablation-workers", 800, bench.AblationWorkers},
	{"ablation-versiondepth", 50, bench.AblationVersionDepth},
	{"ablation-sparseviews", 600, bench.AblationSparseViews},
	{"ablation-cache", 600, bench.AblationCacheEpochs},
}

// selectRunners resolves command-line targets to the runners they name, each
// once, in table order. No target means "all"; "ablations" names every
// ablation. Any unknown target is an error listing the valid ones, so a
// typo never runs nothing and reports success.
func selectRunners(targets []string) ([]runner, error) {
	if len(targets) == 0 {
		targets = []string{"all"}
	}
	var valid []string
	for _, r := range figures {
		valid = append(valid, r.name)
	}
	for _, r := range ablations {
		valid = append(valid, r.name)
	}
	valid = append(valid, "ablations", "all")
	want := map[string]bool{}
	for _, t := range targets {
		if !slices.Contains(valid, t) {
			return nil, fmt.Errorf("unknown target %q; valid targets: %s", t, strings.Join(valid, " "))
		}
		want[t] = true
	}
	var out []runner
	for _, r := range figures {
		if want["all"] || want[r.name] {
			out = append(out, r)
		}
	}
	for _, r := range ablations {
		if want["all"] || want["ablations"] || want[r.name] {
			out = append(out, r)
		}
	}
	return out, nil
}

func main() {
	n := flag.Int("n", 0, "sample count (0 = per-figure default)")
	workers := flag.Int("workers", 8, "loader/ingest parallelism")
	side := flag.Int("side", 0, "override synthetic image edge length (0 = figure default)")
	seed := flag.Int64("seed", 1, "workload seed")
	flag.Parse()

	runners, err := selectRunners(flag.Args())
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchfig: %v\n", err)
		os.Exit(2)
	}
	for _, r := range runners {
		cfg := bench.Config{N: *n, Workers: *workers, ImageSide: *side, Seed: *seed}
		if cfg.N == 0 {
			cfg.N = r.def
		}
		start := time.Now()
		res, err := r.fn(context.Background(), cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", r.name, err)
			os.Exit(1)
		}
		fmt.Print(res.Format())
		fmt.Printf("  (completed in %s)\n\n", time.Since(start).Round(time.Millisecond))
	}
}
