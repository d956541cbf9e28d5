package tql

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/chunk"
	"repro/internal/core"
	"repro/internal/dataloader"
	"repro/internal/storage"
	"repro/internal/tensor"
)

// staleRows is the row count of the read-after-write datasets: int32 rows
// in lz4 chunks of about 30 rows, so every case rewrites one chunk of four.
const staleRows = 120

// staleDataset creates dataset "stale" over store with an int32 column "x"
// holding values, flushed, at the given flush lane count.
func staleDataset(t *testing.T, store storage.Provider, lanes int, values []int) (*core.Dataset, *core.Tensor) {
	t.Helper()
	ctx := context.Background()
	ds, err := core.Create(ctx, store, "stale")
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.SetWriteOptions(core.WriteOptions{FlushWorkers: lanes}); err != nil {
		t.Fatal(err)
	}
	x := staleColumn(t, ds, values)
	return ds, x
}

// staleColumn creates column "x" on ds holding values and flushes it.
func staleColumn(t *testing.T, ds *core.Dataset, values []int) *core.Tensor {
	t.Helper()
	ctx := context.Background()
	x, err := ds.CreateTensor(ctx, core.TensorSpec{Name: "x", Dtype: tensor.Int32, ChunkCompression: "lz4",
		Bounds: chunk.Bounds{Min: 64, Target: 128, Max: 256}})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range values {
		if err := x.Append(ctx, tensor.Scalar(tensor.Int32, float64(v))); err != nil {
			t.Fatal(err)
		}
	}
	if err := ds.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	return x
}

func identityValues(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// checkReads reads every row of ds's "x" through Tensor.At, then through a
// query whose WHERE and ORDER BY stages both read x, then through a loader
// epoch over node, the node cache the case shares across its reads, and
// fails unless all three see want.
func checkReads(t *testing.T, ds *core.Dataset, node *dataloader.NodeCache, want []int, when string) {
	t.Helper()
	ctx := context.Background()
	x := ds.Tensor("x")
	if got := int(x.Len()); got != len(want) {
		t.Fatalf("%s: %d rows, want %d", when, got, len(want))
	}
	for i, w := range want {
		arr, err := x.At(ctx, uint64(i))
		if err != nil {
			t.Fatalf("%s: At(%d): %v", when, i, err)
		}
		if v, _ := arr.Item(); int(v) != w {
			t.Fatalf("%s: At(%d) = %v, want %d", when, i, v, w)
		}
	}
	order := make([]uint64, len(want))
	for i := range order {
		order[i] = uint64(i)
	}
	sort.SliceStable(order, func(a, b int) bool { return want[order[a]] < want[order[b]] })
	v, err := RunWith(ctx, ds, "SELECT * FROM stale WHERE x > -1000000 ORDER BY x", Options{Workers: 2})
	if err != nil {
		t.Fatalf("%s: query: %v", when, err)
	}
	if !reflect.DeepEqual(v.Indices(), order) {
		t.Fatalf("%s: query order %v, want %v", when, v.Indices(), order)
	}
	l := dataloader.ForDataset(ds, dataloader.Options{BatchSize: 16, Workers: 2, Fields: []string{"x"}, Cache: node})
	row := 0
	for b := range l.Batches(ctx) {
		for _, s := range b.Samples {
			if v, _ := s["x"].Item(); row < len(want) && int(v) != want[row] {
				t.Fatalf("%s: loader row %d = %v, want %d", when, row, v, want[row])
			}
			row++
		}
	}
	if err := l.Err(); err != nil {
		t.Fatalf("%s: loader: %v", when, err)
	}
	if row != len(want) {
		t.Fatalf("%s: loader delivered %d rows, want %d", when, row, len(want))
	}
}

func setAt(t *testing.T, x *core.Tensor, row, value int) {
	t.Helper()
	if err := x.SetAt(context.Background(), uint64(row), tensor.Scalar(tensor.Int32, float64(value))); err != nil {
		t.Fatalf("SetAt(%d): %v", row, err)
	}
}

// TestReadsAfterWritesSeeNewBytes: on one handle, a read after each kind of
// chunk rewrite — SetAt in a landed head chunk and in an ancestor version's
// chunk, Rechunk, a tensor deleted and recreated under its name, a checkout
// away and back, a failed Flush and its redrive — returns the bytes written,
// through Tensor.At, through a query and through a loader over a node cache
// the case shares, at one and at eight flush lanes. Every case reads first,
// so whatever a read keeps is in place when the write lands.
func TestReadsAfterWritesSeeNewBytes(t *testing.T) {
	ctx := context.Background()
	cases := []struct {
		name string
		run  func(t *testing.T, lanes int, node *dataloader.NodeCache)
	}{
		{"SetAt in a landed head chunk", func(t *testing.T, lanes int, node *dataloader.NodeCache) {
			want := identityValues(staleRows)
			ds, x := staleDataset(t, storage.NewLRU(storage.NewMemory(), 1<<20), lanes, want)
			checkReads(t, ds, node, want, "before")
			setAt(t, x, 40, 5000)
			want[40] = 5000
			checkReads(t, ds, node, want, "after SetAt")
			if err := ds.Flush(ctx); err != nil {
				t.Fatal(err)
			}
			checkReads(t, ds, node, want, "after Flush")
			setAt(t, x, 41, -7)
			want[41] = -7
			checkReads(t, ds, node, want, "after a second SetAt")
		}},
		{"SetAt in an ancestor version's chunk", func(t *testing.T, lanes int, node *dataloader.NodeCache) {
			want := identityValues(staleRows)
			ds, x := staleDataset(t, storage.NewLRU(storage.NewMemory(), 1<<20), lanes, want)
			if _, err := ds.Commit(ctx, "base"); err != nil {
				t.Fatal(err)
			}
			checkReads(t, ds, node, want, "before")
			setAt(t, x, 70, -3)
			want[70] = -3
			checkReads(t, ds, node, want, "after copy-on-write SetAt")
			if err := ds.Flush(ctx); err != nil {
				t.Fatal(err)
			}
			checkReads(t, ds, node, want, "after Flush")
		}},
		{"Rechunk", func(t *testing.T, lanes int, node *dataloader.NodeCache) {
			want := identityValues(staleRows)
			ds, x := staleDataset(t, storage.NewLRU(storage.NewMemory(), 1<<20), lanes, want)
			checkReads(t, ds, node, want, "before")
			setAt(t, x, 10, 9000)
			want[10] = 9000
			if err := ds.Flush(ctx); err != nil {
				t.Fatal(err)
			}
			checkReads(t, ds, node, want, "after SetAt")
			if err := x.Rechunk(ctx); err != nil {
				t.Fatal(err)
			}
			checkReads(t, ds, node, want, "after Rechunk")
			if err := ds.Flush(ctx); err != nil {
				t.Fatal(err)
			}
			checkReads(t, ds, node, want, "after Flush")
		}},
		{"DeleteTensor then CreateTensor", func(t *testing.T, lanes int, node *dataloader.NodeCache) {
			ds, _ := staleDataset(t, storage.NewLRU(storage.NewMemory(), 1<<20), lanes, identityValues(staleRows))
			checkReads(t, ds, node, identityValues(staleRows), "before")
			if err := ds.DeleteTensor(ctx, "x"); err != nil {
				t.Fatal(err)
			}
			want := make([]int, staleRows)
			for i := range want {
				want[i] = staleRows - i
			}
			staleColumn(t, ds, want)
			checkReads(t, ds, node, want, "after recreate")
		}},
		{"Checkout away and back", func(t *testing.T, lanes int, node *dataloader.NodeCache) {
			base := identityValues(staleRows)
			ds, _ := staleDataset(t, storage.NewLRU(storage.NewMemory(), 1<<20), lanes, base)
			if _, err := ds.Commit(ctx, "base"); err != nil {
				t.Fatal(err)
			}
			checkReads(t, ds, node, base, "main before")
			if err := ds.Checkout(ctx, "dev", true); err != nil {
				t.Fatal(err)
			}
			dev := identityValues(staleRows)
			setAt(t, ds.Tensor("x"), 5, 1000)
			dev[5] = 1000
			if err := ds.Flush(ctx); err != nil {
				t.Fatal(err)
			}
			checkReads(t, ds, node, dev, "dev")
			if err := ds.Checkout(ctx, "main", false); err != nil {
				t.Fatal(err)
			}
			checkReads(t, ds, node, base, "main again")
			setAt(t, ds.Tensor("x"), 6, -6)
			base[6] = -6
			checkReads(t, ds, node, base, "main after SetAt")
			if err := ds.Checkout(ctx, "dev", false); err != nil {
				t.Fatal(err)
			}
			checkReads(t, ds, node, dev, "dev again")
		}},
		{"SetAt again after a checkout away and back", func(t *testing.T, lanes int, node *dataloader.NodeCache) {
			want := identityValues(staleRows)
			ds, x := staleDataset(t, storage.NewLRU(storage.NewMemory(), 1<<20), lanes, want)
			checkReads(t, ds, node, want, "before")
			setAt(t, x, 40, 5000)
			want[40] = 5000
			checkReads(t, ds, node, want, "after SetAt")
			for _, ref := range []string{"dev", "main"} {
				if err := ds.Checkout(ctx, ref, ref == "dev"); err != nil {
					t.Fatal(err)
				}
			}
			// The head chunk is written a third time: its cache key must
			// differ from both earlier ones, whatever the checkouts rebuilt.
			setAt(t, ds.Tensor("x"), 41, -7)
			want[41] = -7
			checkReads(t, ds, node, want, "after the checkouts and a SetAt")
		}},
		{"failed Flush and its redrive", func(t *testing.T, lanes int, node *dataloader.NodeCache) {
			store := &failingPuts{Provider: storage.NewMemory()}
			want := identityValues(staleRows)
			ds, x := staleDataset(t, storage.NewLRU(store, 1<<20), lanes, want)
			checkReads(t, ds, node, want, "before")
			// Chunk uploads fail until the Flush after the SetAt has reported
			// the failure: the rewritten chunk's upload fails and parks before
			// that Flush (whose redrive fails again) or during it, as the
			// upload goroutine happens to be scheduled.
			store.failing.Store(true)
			err := x.SetAt(ctx, 50, tensor.Scalar(tensor.Int32, 4000))
			var dfe *core.DeferredFlushError
			if err != nil && !errors.As(err, &dfe) {
				t.Fatalf("SetAt: %v", err)
			}
			want[50] = 4000
			checkReads(t, ds, node, want, "parked")
			if err := ds.Flush(ctx); err == nil {
				t.Fatal("the flush over a failing upload reported nothing")
			}
			store.failing.Store(false)
			if store.failed.Load() == 0 {
				t.Fatal("no upload failed")
			}
			checkReads(t, ds, node, want, "after the failed Flush")
			if err := ds.Flush(ctx); err != nil {
				t.Fatalf("redrive: %v", err)
			}
			checkReads(t, ds, node, want, "after the redrive")
		}},
	}
	for _, lanes := range []int{1, 8} {
		for _, tc := range cases {
			t.Run(fmt.Sprintf("lanes=%d/%s", lanes, tc.name), func(t *testing.T) { tc.run(t, lanes, dataloader.NewNodeCache(0)) })
		}
	}
}

// TestQueriesSeeEverySetAtBeforeThem races readers against a writer on one
// handle. The writer sets row 40 to -1, -2, -3, … and, once each SetAt has
// returned, publishes how many it has made. A reader that saw k published
// before it started must read a value ≤ -k, through Tensor.At and through a
// query, whatever it kept from earlier reads. Ordered by the published
// count, not by a clock.
func TestQueriesSeeEverySetAtBeforeThem(t *testing.T) {
	ctx := context.Background()
	const row, writes, readers = 40, 60, 2
	ds, x := staleDataset(t, storage.NewLRU(storage.NewMemory(), 1<<20), 2, identityValues(staleRows))
	var done atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan error, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := done.Load()
				if k > 0 {
					arr, err := x.At(ctx, row)
					if err != nil {
						errs <- err
						return
					}
					if v, _ := arr.Item(); int64(v) > -k {
						errs <- fmt.Errorf("At(%d) = %v after SetAt #%d returned", row, v, k)
						return
					}
					q := fmt.Sprintf("SELECT * FROM stale WHERE x <= %d", -k)
					view, err := RunWith(ctx, ds, q, Options{Workers: 2})
					if err != nil {
						errs <- err
						return
					}
					if got := view.Indices(); len(got) != 1 || got[0] != row {
						errs <- fmt.Errorf("%s after SetAt #%d returned: rows %v", q, k, got)
						return
					}
				}
				if k == writes {
					return
				}
				runtime.Gosched()
			}
		}()
	}
	for k := 1; k <= writes; k++ {
		setAt(t, x, row, -k)
		done.Store(int64(k))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// failingPuts fails every chunk Put with a permanent error while failing is
// set, which the flush pipeline parks for the next Flush to redrive, and
// counts the failures in failed.
type failingPuts struct {
	storage.Provider
	failing atomic.Bool
	failed  atomic.Int64
}

func (p *failingPuts) Put(ctx context.Context, key string, data []byte) error {
	if p.failing.Load() && strings.Contains(key, "/chunks/") {
		p.failed.Add(1)
		return fmt.Errorf("put %q: permanent: access denied", key)
	}
	return p.Provider.Put(ctx, key, data)
}
