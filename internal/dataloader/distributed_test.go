package dataloader

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"repro/internal/storage"
	"repro/internal/tensor"
)

// rankRows streams one rank's epoch and returns the first element of "x"
// per row, in delivery order.
func rankRows(t *testing.T, l *Loader) []float64 {
	t.Helper()
	var rows []float64
	for _, b := range drain(t, l) {
		for _, s := range b.Samples {
			v, _ := s["x"].At(0)
			rows = append(rows, v)
		}
	}
	return rows
}

// TestRankShardsAreDisjointAndComplete: for a fixed seed, the Rank/WorldSize
// shards of one epoch must partition the dataset — no row on two ranks, no
// row lost — and each rank's stream must be identical at any worker count.
// World 4 exercises chunk-granular sharding (many chunks per rank); world 64
// exceeds the chunk count and exercises the row-striding fallback, which
// must additionally leave no rank empty.
func TestRankShardsAreDisjointAndComplete(t *testing.T) {
	const n = 300
	ds := loaderDataset(t, storage.NewMemory(), n)
	for _, world := range []int{4, 64} {
		for _, shuffle := range []bool{false, true} {
			seen := map[float64]int{}
			for rank := 0; rank < world; rank++ {
				run := func(workers int) []float64 {
					l := ForDataset(ds, Options{
						BatchSize: 8, Workers: workers, Shuffle: shuffle, Seed: 5,
						ShuffleBuffer: 32, Rank: rank, WorldSize: world,
					})
					return rankRows(t, l)
				}
				one := run(1)
				sixteen := run(16)
				if !reflect.DeepEqual(one, sixteen) {
					t.Fatalf("world=%d shuffle=%v rank %d: stream differs between 1 and 16 workers", world, shuffle, rank)
				}
				if world > ds.Tensor("x").NumChunks() && len(one) == 0 {
					t.Fatalf("world=%d shuffle=%v rank %d: starved despite the row-striding fallback", world, shuffle, rank)
				}
				for _, v := range one {
					seen[v]++
				}
			}
			if len(seen) != n {
				t.Fatalf("world=%d shuffle=%v: ranks covered %d/%d distinct rows", world, shuffle, len(seen), n)
			}
			for v, c := range seen {
				if c != 1 {
					t.Fatalf("world=%d shuffle=%v: row %v delivered %d times across ranks", world, shuffle, v, c)
				}
			}
		}
	}
}

// TestRankOutOfRange: an invalid Rank/WorldSize pair fails fast through
// Err(), not with a hung or empty stream.
func TestRankOutOfRange(t *testing.T) {
	ds := loaderDataset(t, storage.NewMemory(), 8)
	l := ForDataset(ds, Options{Rank: 3, WorldSize: 2})
	for range l.Batches(context.Background()) {
	}
	if err := l.Err(); err == nil {
		t.Fatal("rank 3 of world 2 must error")
	}
}

// TestEpochsReshuffleAndDoNotStraddleBatches: a multi-epoch stream delivers
// every row once per epoch, labels batches with their epoch, never packs one
// batch across an epoch boundary, and reshuffles the order between epochs.
func TestEpochsReshuffleAndDoNotStraddleBatches(t *testing.T) {
	const n, epochs = 100, 3
	ds := loaderDataset(t, storage.NewMemory(), n)
	l := ForDataset(ds, Options{
		BatchSize: 8, Workers: 4, Shuffle: true, Seed: 13, ShuffleBuffer: 16,
		Epochs: epochs,
	})
	perEpoch := make([][]float64, epochs)
	for _, b := range drain(t, l) {
		if b.Epoch < 0 || b.Epoch >= epochs {
			t.Fatalf("batch %d labeled epoch %d", b.Index, b.Epoch)
		}
		for _, s := range b.Samples {
			v, _ := s["x"].At(0)
			perEpoch[b.Epoch] = append(perEpoch[b.Epoch], v)
		}
	}
	for e, rows := range perEpoch {
		if len(rows) != n {
			t.Fatalf("epoch %d delivered %d/%d rows", e, len(rows), n)
		}
		sorted := append([]float64(nil), rows...)
		sort.Float64s(sorted)
		for i, v := range sorted {
			if v != float64(i) {
				t.Fatalf("epoch %d lost/duplicated rows at %d: %v", e, i, v)
			}
		}
	}
	if reflect.DeepEqual(perEpoch[0], perEpoch[1]) {
		t.Fatal("epochs 0 and 1 share one order; per-epoch reseeding is broken")
	}
	if l.Rows() != int64(n*epochs) {
		t.Fatalf("Rows() = %d, want %d", l.Rows(), n*epochs)
	}

	// The trailing partial batch of EVERY epoch is dropped under DropLast
	// (100 rows / batch 8 = 12 full batches + 4 dropped, per epoch).
	ld := ForDataset(ds, Options{BatchSize: 8, Workers: 4, Epochs: epochs, DropLast: true})
	batches := drain(t, ld)
	if len(batches) != 12*epochs {
		t.Fatalf("DropLast kept %d batches, want %d", len(batches), 12*epochs)
	}
	for _, b := range batches {
		if len(b.Samples) != 8 {
			t.Fatalf("DropLast leaked a partial batch of %d", len(b.Samples))
		}
	}
}

// TestChunksDecodedOncePerEpochPerRank is the decode-once contract the
// chunk-aligned pipeline exists for: one epoch decodes every touched chunk
// exactly once (per rank), and origin Gets match — regardless of worker
// count.
func TestChunksDecodedOncePerEpochPerRank(t *testing.T) {
	inner := storage.NewMemory()
	counting := storage.NewCounting(inner)
	ds := loaderDataset(t, counting, 256)
	chunks := int64(ds.Tensor("x").NumChunks() + ds.Tensor("label").NumChunks())

	// Single rank: equality, not just a bound.
	counting.Reset()
	l := ForDataset(ds, Options{BatchSize: 16, Workers: 16, Shuffle: true, Seed: 3})
	drain(t, l)
	if got := l.CacheDecodes(); got != chunks {
		t.Fatalf("epoch decoded %d chunks, want exactly %d", got, chunks)
	}
	if gets := counting.Snapshot().Gets; gets != chunks {
		t.Fatalf("epoch fetched %d objects for %d chunks", gets, chunks)
	}

	// Sharded ranks: each rank decodes its primary shard once; secondary
	// chunks straddling shard boundaries may repeat across ranks but never
	// within one.
	const world = 4
	var total int64
	for rank := 0; rank < world; rank++ {
		lr := ForDataset(ds, Options{
			BatchSize: 16, Workers: 8, Shuffle: true, Seed: 3,
			Rank: rank, WorldSize: world,
		})
		drain(t, lr)
		got := lr.CacheDecodes()
		if got > chunks {
			t.Fatalf("rank %d decoded %d chunks, more than the dataset's %d", rank, got, chunks)
		}
		total += got
	}
	if total < chunks {
		t.Fatalf("ranks decoded %d chunks together, dataset has %d", total, chunks)
	}
}

// TestWorkerErrorSurfacesDeterministically is the regression test for error
// delivery: a failing sample must surface the SAME error through Err()
// after the channel closes — never nil, never the cancellation fallout of
// sibling workers — and the rows delivered first must be an in-order,
// full-batch prefix strictly before the failure's delivery position.
func TestWorkerErrorSurfacesDeterministically(t *testing.T) {
	const n, failRow = 200, 97
	ds := loaderDataset(t, storage.NewMemory(), n)
	boom := errors.New("bad sample")
	for round := 0; round < 20; round++ {
		workers := []int{1, 2, 16}[round%3]
		l := ForDataset(ds, Options{
			BatchSize: 8, Workers: workers,
			Transform: func(s map[string]*tensor.NDArray) (map[string]*tensor.NDArray, error) {
				if v, _ := s["x"].At(0); v == failRow {
					return nil, boom
				}
				return s, nil
			},
		})
		var rows []float64
		for b := range l.Batches(context.Background()) {
			if len(b.Samples) != 8 {
				t.Fatalf("workers=%d: partial batch of %d emitted on the error path", workers, len(b.Samples))
			}
			for _, s := range b.Samples {
				v, _ := s["x"].At(0)
				rows = append(rows, v)
			}
		}
		if err := l.Err(); !errors.Is(err, boom) {
			t.Fatalf("workers=%d round %d: Err() = %v, want injected failure", workers, round, err)
		}
		for i, v := range rows {
			if v != float64(i) {
				t.Fatalf("workers=%d: delivered rows are not the in-order prefix at %d: %v", workers, i, v)
			}
		}
		if len(rows) >= failRow+1 {
			t.Fatalf("workers=%d: delivered %d rows at/past the failing row %d", workers, len(rows), failRow)
		}
	}
}

// TestErrorPositionPicksEarliestFailure: when several rows fail, Err()
// reports the failure at the earliest delivery position for single-worker
// runs (the deterministic reference order).
func TestErrorPositionPicksEarliestFailure(t *testing.T) {
	ds := loaderDataset(t, storage.NewMemory(), 64)
	l := ForDataset(ds, Options{
		BatchSize: 4, Workers: 1,
		Transform: func(s map[string]*tensor.NDArray) (map[string]*tensor.NDArray, error) {
			v, _ := s["x"].At(0)
			if v == 20 || v == 40 {
				return nil, fmt.Errorf("fail at %v", v)
			}
			return s, nil
		},
	})
	for range l.Batches(context.Background()) {
	}
	if err := l.Err(); err == nil || err.Error() != "dataloader: transform at row 20: fail at 20" {
		t.Fatalf("Err() = %v, want the earliest failure (row 20)", l.Err())
	}
}
