package bench

import (
	"context"
	"testing"
)

// TestConcurrentReadersScenario asserts the PR's acceptance criteria: 16
// concurrent misses on one hot chunk reach the origin as exactly one Get,
// and every reader count reports a throughput. How the throughputs compare
// depends on the host, so CI's benchcheck baselines gate that, not a test.
func TestConcurrentReadersScenario(t *testing.T) {
	res, err := ConcurrentReaders(context.Background(), Config{N: 64, Workers: 4, ImageSide: 48})
	if err != nil {
		t.Fatal(err)
	}
	hot, ok := res.Value("hot-chunk-origin-gets")
	if !ok {
		t.Fatal("hot-chunk-origin-gets row missing")
	}
	if hot != 1 {
		t.Fatalf("hot chunk origin Gets = %.0f, want exactly 1 (coalesced)", hot)
	}
	t1, ok1 := res.Value("readers-1")
	t4, ok4 := res.Value("readers-4")
	t16, ok16 := res.Value("readers-16")
	if !ok1 || !ok4 || !ok16 {
		t.Fatalf("throughput rows missing: %+v", res.Rows)
	}
	if t1 <= 0 || t4 <= 0 || t16 <= 0 {
		t.Fatalf("non-positive throughput: %.1f/%.1f/%.1f", t1, t4, t16)
	}
}
