// Package bench regenerates every figure of the paper's evaluation (§6) as
// text series: ingestion speed across formats (Fig 6), local dataloader
// throughput (Fig 7), streaming from different storage locations (Fig 8),
// ImageNet training modes on S3 (Fig 9), and distributed multi-modal
// training utilization (Fig 10), plus ablations over the design choices
// DESIGN.md calls out. The same runners back the root bench_test.go
// (testing.B, small N) and cmd/benchfig (larger N, printed tables).
package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// Row is one measured series point.
type Row struct {
	// Name labels the system/configuration.
	Name string `json:"name"`
	// Value is the measurement in Unit.
	Value float64 `json:"value"`
	// Unit is the measurement unit ("s", "img/s", "%", ...).
	Unit string `json:"unit"`
	// Extra carries secondary measurements for the table.
	Extra string `json:"extra,omitempty"`
}

// Result is one regenerated figure.
type Result struct {
	// ID is the experiment id ("fig6").
	ID string
	// Title describes the experiment.
	Title string
	// Better is "lower" or "higher".
	Better string
	// Rows are the measured series.
	Rows []Row
	// Notes carry caveats (scaling factors, substitutions).
	Notes []string
}

// Format renders the result as an aligned text table.
func (r *Result) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s: %s (%s is better) ==\n", r.ID, r.Title, r.Better)
	nameW := 4
	for _, row := range r.Rows {
		if len(row.Name) > nameW {
			nameW = len(row.Name)
		}
	}
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "  %-*s  %10.3f %-6s %s\n", nameW, row.Name, row.Value, row.Unit, row.Extra)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&sb, "  note: %s\n", n)
	}
	return sb.String()
}

// Sorted returns rows ordered by value (ascending when Better == "lower").
func (r *Result) Sorted() []Row {
	rows := append([]Row(nil), r.Rows...)
	asc := r.Better == "lower"
	sort.SliceStable(rows, func(i, j int) bool {
		if asc {
			return rows[i].Value < rows[j].Value
		}
		return rows[i].Value > rows[j].Value
	})
	return rows
}

// Value returns the measurement of a named row.
func (r *Result) Value(name string) (float64, bool) {
	for _, row := range r.Rows {
		if row.Name == name {
			return row.Value, true
		}
	}
	return 0, false
}

// Report is the machine-readable form of one scenario run, written by
// cmd/benchfig -json as BENCH_<scenario>.json so the perf trajectory is
// recorded per PR.
type Report struct {
	ID         string   `json:"id"`
	Title      string   `json:"title"`
	Better     string   `json:"better"`
	N          int      `json:"n"`
	Workers    int      `json:"workers"`
	Seed       int64    `json:"seed"`
	ElapsedSec float64  `json:"elapsed_sec"`
	Rows       []Row    `json:"rows"`
	Notes      []string `json:"notes,omitempty"`
}

// WriteJSON writes the result as BENCH_<id>.json under dir (created if
// missing) and returns the path.
func (r *Result) WriteJSON(dir string, cfg Config, elapsed time.Duration) (string, error) {
	rep := Report{
		ID: r.ID, Title: r.Title, Better: r.Better,
		N: cfg.N, Workers: cfg.Workers, Seed: cfg.Seed,
		ElapsedSec: elapsed.Seconds(),
		Rows:       r.Rows, Notes: r.Notes,
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return "", err
	}
	if dir != "" && dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return "", err
		}
	}
	path := filepath.Join(dir, "BENCH_"+r.ID+".json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return "", err
	}
	return path, nil
}

// Config scales an experiment.
type Config struct {
	// N is the sample count (each figure has its own full-scale default;
	// tests pass small values).
	N int
	// Workers is the loader/ingest parallelism (default 8).
	Workers int
	// ImageSide overrides the synthetic image edge length, letting tests
	// shrink the Fig 6 3MB images.
	ImageSide int
	// Seed drives the deterministic generators.
	Seed int64
	// Ranks sets the train scenario's simulated same-node rank count: that
	// many rank-sharded loaders share one node-level decoded-chunk cache,
	// and the runner enforces per-NODE decode-once across them (0 =
	// scenario default of 4).
	Ranks int
}

func (c Config) withDefaults(defaultN int) Config {
	if c.N <= 0 {
		c.N = defaultN
	}
	if c.Workers <= 0 {
		c.Workers = 8
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}
