// Package bench regenerates every figure of the paper's evaluation (§6) as
// text series: ingestion speed across formats (Fig 6), local dataloader
// throughput (Fig 7), streaming from different storage locations (Fig 8),
// ImageNet training modes on S3 (Fig 9), and distributed multi-modal
// training utilization (Fig 10), plus ablations over the design choices.
// It is a figure printer, not a gate: the runners measure and report, and
// assert nothing beyond having delivered every row. Regressions are judged
// by benchmarks/lakebench; the contracts of the layers these figures run
// over are tests in those layers' packages. The same runners back the root
// bench_test.go (testing.B, small N) and cmd/benchfig (larger N, printed
// tables).
package bench

import (
	"fmt"
	"sort"
	"strings"
)

// Row is one measured series point.
type Row struct {
	// Name labels the system/configuration.
	Name string
	// Value is the measurement in Unit.
	Value float64
	// Unit is the measurement unit ("s", "img/s", "%", ...).
	Unit string
	// Extra carries secondary measurements for the table.
	Extra string
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
