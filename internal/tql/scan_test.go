package tql

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/chunk"
	"repro/internal/core"
	"repro/internal/storage"
	"repro/internal/tensor"
)

// scanDataset builds a dataset whose x tensor spans many small chunks, with
// per-row shapes dim x dim where dim = dims[i%len(dims)], plus an int label
// column.
func scanDataset(t *testing.T, store storage.Provider, n int, dims []int) *core.Dataset {
	t.Helper()
	ctx := context.Background()
	ds, err := core.Create(ctx, store, "scan")
	if err != nil {
		t.Fatal(err)
	}
	bounds := chunk.Bounds{Min: 128, Target: 256, Max: 512}
	x, err := ds.CreateTensor(ctx, core.TensorSpec{Name: "x", Dtype: tensor.UInt8, Bounds: bounds})
	if err != nil {
		t.Fatal(err)
	}
	labels, err := ds.CreateTensor(ctx, core.TensorSpec{Name: "labels", Htype: "class_label", Bounds: bounds})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		dim := dims[i%len(dims)]
		arr := tensor.MustNew(tensor.UInt8, dim, dim)
		for j := 0; j < dim*dim; j++ {
			arr.SetAt(float64((i*7+j)%251), j/dim, j%dim)
		}
		if err := x.Append(ctx, arr); err != nil {
			t.Fatal(err)
		}
		if err := labels.Append(ctx, tensor.Scalar(tensor.Int32, float64(i%5))); err != nil {
			t.Fatal(err)
		}
	}
	if err := ds.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	return ds
}

// TestShapeOnlyWhereZeroChunkGets asserts the pushdown acceptance
// criterion: a shape-only WHERE (at any worker count) answers entirely from
// the shape encoder with zero chunk Gets against storage.
func TestShapeOnlyWhereZeroChunkGets(t *testing.T) {
	ctx := context.Background()
	count := storage.NewCounting(storage.NewMemory())
	ds := scanDataset(t, count, 60, []int{4, 6, 8})
	for _, workers := range []int{1, 16} {
		count.Reset()
		v, err := RunWith(ctx, ds, "SELECT labels FROM scan WHERE SHAPE(x)[0] >= 6 AND SIZE(x) <= 36", Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if v.Len() != 20 { // dim 6 rows only: 6*6 <= 36 < 8*8
			t.Fatalf("workers=%d rows = %d, want 20", workers, v.Len())
		}
		if got := count.Requests(); got != 0 {
			t.Fatalf("workers=%d shape-only WHERE did %d chunk reads, want 0", workers, got)
		}
	}
}

// TestDataTouchingSubscriptIsNotShapeOnly guards the pushdown classifier:
// a shape call whose subscript itself loads tensor data must not be
// promised as zero-IO, but still returns correct results.
func TestDataTouchingSubscriptIsNotShapeOnly(t *testing.T) {
	ctx := context.Background()
	count := storage.NewCounting(storage.NewMemory())
	ds := scanDataset(t, count, 20, []int{4, 6})
	const q = "SELECT labels FROM scan WHERE SHAPE(x)[CLIP(MEAN(labels), 0, 0)] >= 6"
	parsed, err := Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	if shape, data := splitConjuncts(parsed.Where); len(shape) != 0 || len(data) != 1 {
		t.Fatalf("data-touching subscript split as shape=%d data=%d, want 0/1", len(shape), len(data))
	}
	v, err := RunWith(ctx, ds, q, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if v.Len() != 10 { // dim-6 rows
		t.Fatalf("rows = %d, want 10", v.Len())
	}
}

// TestPushdownPreservesShortCircuitGuards asserts that only the leading
// run of shape-only conjuncts is hoisted: a shape conjunct guarded by an
// earlier data conjunct keeps its short-circuit protection, so a query
// whose guarded conjunct would error on some rows still succeeds.
func TestPushdownPreservesShortCircuitGuards(t *testing.T) {
	ctx := context.Background()
	ds := scanDataset(t, storage.NewMemory(), 20, []int{4, 6})
	// labels == 99 never matches, so SHAPE(x)[5] (out of range for 2-d
	// samples) must never be evaluated.
	v, err := RunWith(ctx, ds, "SELECT * FROM scan WHERE labels == 99 AND SHAPE(x)[5] > 0", Options{Workers: 4})
	if err != nil {
		t.Fatalf("guarded shape conjunct was evaluated: %v", err)
	}
	if v.Len() != 0 {
		t.Fatalf("rows = %d, want 0", v.Len())
	}
	// Unguarded, the same conjunct errors — in textual order, exactly as
	// the serial short-circuit evaluator would.
	if _, err := RunWith(ctx, ds, "SELECT * FROM scan WHERE SHAPE(x)[5] > 0 AND labels == 99", Options{Workers: 4}); err == nil {
		t.Fatal("leading out-of-range shape conjunct should error")
	}
}

// TestPartialPushdownPrefiltersChunkIO asserts that in `A AND B` with A
// shape-only, the data-touching part runs only over A's survivors: chunks
// holding no surviving row are never fetched.
func TestPartialPushdownPrefiltersChunkIO(t *testing.T) {
	ctx := context.Background()
	count := storage.NewCounting(storage.NewMemory())
	ds := scanDataset(t, count, 60, []int{8})
	total := ds.Tensor("x").NumChunks()
	if total < 8 {
		t.Fatalf("dataset too coarse: %d chunks", total)
	}
	count.Reset()
	v, err := RunWith(ctx, ds, "SELECT labels FROM scan WHERE ROW() < 8 AND MEAN(x) >= 0", Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if v.Len() != 8 {
		t.Fatalf("rows = %d, want 8", v.Len())
	}
	gets := count.Snapshot().Gets
	if gets == 0 || gets >= int64(total) {
		t.Fatalf("prefiltered scan fetched %d of %d chunks; want a strict subset covering rows 0-7", gets, total)
	}
}

// TestChunkAwareScanFetchesEachChunkOnce asserts the chunk-partitioned
// engine's IO contract: a full data-touching WHERE fetches every chunk of
// the scanned tensor exactly once, regardless of worker count, because
// partitions are chunk-aligned and workers reuse decoded chunks.
func TestChunkAwareScanFetchesEachChunkOnce(t *testing.T) {
	ctx := context.Background()
	count := storage.NewCounting(storage.NewMemory())
	ds := scanDataset(t, count, 60, []int{8})
	total := int64(ds.Tensor("x").NumChunks())
	for _, workers := range []int{1, 4, 16} {
		count.Reset()
		v, err := RunWith(ctx, ds, "SELECT labels FROM scan WHERE MEAN(x) >= 0", Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if v.Len() != 60 {
			t.Fatalf("workers=%d rows = %d, want 60", workers, v.Len())
		}
		if gets := count.Snapshot().Gets; gets != total {
			t.Fatalf("workers=%d fetched %d chunk(s), want exactly %d (one per chunk)", workers, gets, total)
		}
	}
}

// TestPushdownMatchesFullScanRandomized cross-checks the shape encoder
// against the data itself: on randomized datasets, every shape-flavoured
// query returns the same row set whether answered by the encoder (pushdown)
// or by decoding samples (the disablePushdown hook).
func TestPushdownMatchesFullScanRandomized(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 3; trial++ {
		dims := make([]int, 1+rng.Intn(4))
		for i := range dims {
			dims[i] = 3 + rng.Intn(6)
		}
		n := 30 + rng.Intn(40)
		ds := scanDataset(t, storage.NewMemory(), n, dims)
		queries := []string{
			fmt.Sprintf("SELECT * FROM scan WHERE SHAPE(x)[0] > %d", 3+rng.Intn(5)),
			fmt.Sprintf("SELECT * FROM scan WHERE SIZE(x) >= %d AND NDIM(x) == 2", 9+rng.Intn(40)),
			fmt.Sprintf("SELECT * FROM scan WHERE LEN(x) <= %d AND MEAN(x) >= 0", 4+rng.Intn(5)),
			fmt.Sprintf("SELECT * FROM scan WHERE SHAPE(x)[1] == %d OR labels == %d", dims[0], rng.Intn(5)),
		}
		for _, q := range queries {
			push, err := RunWith(ctx, ds, q, Options{Workers: 8})
			if err != nil {
				t.Fatalf("%s: %v", q, err)
			}
			full, err := RunWith(ctx, ds, q, Options{Workers: 8, disablePushdown: true})
			if err != nil {
				t.Fatalf("%s (full scan): %v", q, err)
			}
			if !reflect.DeepEqual(push.Indices(), full.Indices()) {
				t.Fatalf("trial %d %s: pushdown %v != full scan %v", trial, q, push.Indices(), full.Indices())
			}
		}
	}
}

// TestParallelScanDeterminism asserts the tentpole's ordering contract:
// the same query produces byte-identical views at workers=1 and workers=16,
// across filter, order, group, arrange and weighted-sample stages.
func TestParallelScanDeterminism(t *testing.T) {
	ctx := context.Background()
	ds := scanDataset(t, storage.NewMemory(), 150, []int{4, 6, 8, 10})
	queries := []string{
		"SELECT * FROM scan WHERE MEAN(x) > 100",
		"SELECT labels FROM scan WHERE SHAPE(x)[0] >= 6 AND MEAN(x) > 50 ORDER BY MEAN(x) DESC",
		"SELECT * FROM scan GROUP BY labels",
		"SELECT * FROM scan WHERE labels < 4 ARRANGE BY labels",
		"SELECT * FROM scan SAMPLE BY labels + 1 LIMIT 40",
		"SELECT * FROM scan WHERE MEAN(x) > 20 ORDER BY labels ARRANGE BY SHAPE(x)[0] LIMIT 60 OFFSET 5",
	}
	for _, q := range queries {
		serial, err := RunWith(ctx, ds, q, Options{Workers: 1})
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		parallel, err := RunWith(ctx, ds, q, Options{Workers: 16})
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if !reflect.DeepEqual(serial.Indices(), parallel.Indices()) {
			t.Fatalf("%s: workers=1 %v != workers=16 %v", q, serial.Indices(), parallel.Indices())
		}
		if serial.Len() == 0 {
			t.Fatalf("%s: empty result weakens the comparison", q)
		}
		// Spot-check cell bytes, not just row identity.
		for _, row := range []int{0, serial.Len() - 1} {
			for _, col := range serial.ColumnNames() {
				a, err := serial.At(ctx, row, col)
				if err != nil {
					t.Fatal(err)
				}
				b, err := parallel.At(ctx, row, col)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(a.Bytes(), b.Bytes()) {
					t.Fatalf("%s: row %d col %s differs between worker counts", q, row, col)
				}
			}
		}
	}
}

// TestStripPrefetchCoalescesAcrossPartitions is the strip scheduler's
// IO-shape assertion at unit scale: with a prefetching cache in the chain, a
// cold 16-worker data scan costs strictly fewer origin requests than the
// distinct chunks it planned, because strips pack chunks owned by different
// workers into shared batch requests — one request per chunk is what any
// scheme that never coalesces across partitions pays at this partition
// size. The rows are those of the serial scan.
func TestStripPrefetchCoalescesAcrossPartitions(t *testing.T) {
	ctx := context.Background()
	count := storage.NewCounting(storage.NewMemory())
	scanDataset(t, count, 96, []int{8})
	openCold := func() *core.Dataset {
		ds, err := core.Open(ctx, storage.NewShardedLRU(count, 1<<30, 1))
		if err != nil {
			t.Fatal(err)
		}
		count.Reset()
		return ds
	}
	const q = "SELECT labels FROM scan WHERE MEAN(x) >= 0"

	var stats ScanStats
	strip, err := RunWith(ctx, openCold(), q, Options{Workers: 16, Stats: &stats})
	if err != nil {
		t.Fatal(err)
	}
	stripReqs := count.Requests()

	serial, err := RunWith(ctx, openCold(), q, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(strip.Indices(), serial.Indices()) {
		t.Fatalf("16-worker scan %v != serial scan %v", strip.Indices(), serial.Indices())
	}
	if strip.Len() != 96 {
		t.Fatalf("rows = %d, want 96", strip.Len())
	}
	if stats.PrefetchStrips() == 0 || stats.PrefetchPlanned() == 0 {
		t.Fatalf("strip scheduler idle: %s", &stats)
	}
	if stripReqs >= stats.PrefetchPlanned() {
		t.Fatalf("strips did not coalesce across partitions: %d origin requests for %d planned chunks", stripReqs, stats.PrefetchPlanned())
	}
}

// TestScanStatsCountSkippedPrefetch asserts the planned/claimed/skipped
// ledger: a rescan over a warm cache plans the same chunks but claims none
// of them — every one counts as skipped, not silently dropped.
func TestScanStatsCountSkippedPrefetch(t *testing.T) {
	ctx := context.Background()
	ds, err := core.Open(ctx, storage.NewShardedLRU(func() storage.Provider {
		mem := storage.NewMemory()
		scanDataset(t, mem, 60, []int{8})
		return mem
	}(), 1<<30, 1))
	if err != nil {
		t.Fatal(err)
	}
	const q = "SELECT labels FROM scan WHERE MEAN(x) >= 0"
	var cold ScanStats
	if _, err := RunWith(ctx, ds, q, Options{Workers: 4, Stats: &cold}); err != nil {
		t.Fatal(err)
	}
	if cold.PrefetchClaimed() == 0 {
		t.Fatalf("cold scan claimed nothing: %s", &cold)
	}
	var warm ScanStats
	if _, err := RunWith(ctx, ds, q, Options{Workers: 4, Stats: &warm}); err != nil {
		t.Fatal(err)
	}
	if warm.PrefetchPlanned() == 0 || warm.PrefetchClaimed() != 0 {
		t.Fatalf("warm scan should plan but claim nothing: %s", &warm)
	}
	if warm.PrefetchSkipped() != warm.PrefetchPlanned() {
		t.Fatalf("skipped %d != planned %d on warm cache", warm.PrefetchSkipped(), warm.PrefetchPlanned())
	}
}

// cancelStore cancels a context after a fixed number of Gets, simulating a
// caller abandoning a query mid-scan.
type cancelStore struct {
	storage.Provider
	cancel context.CancelFunc
	after  int64
	n      int64
}

func (s *cancelStore) Get(ctx context.Context, key string) ([]byte, error) {
	if atomic.AddInt64(&s.n, 1) == s.after {
		s.cancel()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return s.Provider.Get(ctx, key)
}

// TestParallelScanCancellation asserts that cancelling the query context
// mid-scan aborts every worker and surfaces context.Canceled.
func TestParallelScanCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cs := &cancelStore{Provider: storage.NewMemory(), cancel: cancel, after: 1 << 62}
	ds := scanDataset(t, cs, 120, []int{8})
	// Arm the trigger only for the query's chunk reads, not ingestion's.
	atomic.StoreInt64(&cs.n, 0)
	cs.after = 3
	for _, workers := range []int{1, 8} {
		atomic.StoreInt64(&cs.n, 0)
		_, err := RunWith(ctx, ds, "SELECT * FROM scan WHERE MEAN(x) >= 0", Options{Workers: workers})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		// The context stays cancelled for the second loop iteration; that
		// still must surface context.Canceled, not a wrong answer.
	}
}
