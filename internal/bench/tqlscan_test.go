package bench

import (
	"context"
	"testing"
)

// TestTQLScanScenario asserts the PR's acceptance criteria at test scale: a
// shape-only WHERE reaches the origin zero times (shape-encoder pushdown)
// and the forced full scan does not. The TQLScan runner itself fails when
// pushdown leaks IO, when pushdown and full scan disagree on the result
// set, or when the 16-worker strip scan fails to coalesce or to return the
// serial scan's rows. Throughput rows must be present and positive; they
// are not compared — wall-clock ratios depend on the host's core count.
func TestTQLScanScenario(t *testing.T) {
	res, err := TQLScan(context.Background(), Config{N: 96, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	push, ok := res.Value("pushdown-origin-requests")
	if !ok {
		t.Fatal("pushdown-origin-requests row missing")
	}
	if push != 0 {
		t.Fatalf("shape-only WHERE made %.0f origin requests, want 0", push)
	}
	full, ok := res.Value("fullscan-origin-requests")
	if !ok {
		t.Fatal("fullscan-origin-requests row missing")
	}
	if full <= 0 {
		t.Fatalf("full scan made %.0f origin requests, want > 0", full)
	}
	t1, ok1 := res.Value("filter-workers-1")
	t16, ok16 := res.Value("filter-workers-16")
	strip, oks := res.Value("strip-origin-requests")
	if !ok1 || !ok16 || !oks {
		t.Fatalf("scan rows missing: %+v", res.Rows)
	}
	if t1 <= 0 || t16 <= 0 || strip <= 0 {
		t.Fatalf("non-positive scan rows: %.1f/%.1f/%.0f", t1, t16, strip)
	}
}
