package core

import (
	"context"
	"sync"
	"testing"

	"repro/internal/tensor"
)

// TestRowsInsideTheSlotTakeNoLock: once a kept reader has resolved a landed
// chunk, the other rows of that chunk read while another goroutine holds the
// tensor's (or the dataset's) write lock, and a row of the next chunk reads
// only after the unlock. Event-ordered: a reader that locked per row blocks
// on the first of those rows, and the test fails by -timeout.
func TestRowsInsideTheSlotTakeNoLock(t *testing.T) {
	for _, tc := range []struct {
		name string
		lock func(x *Tensor) (unlock func())
	}{
		{"tensor", func(x *Tensor) func() { x.mu.Lock(); return x.mu.Unlock }},
		{"dataset", func(x *Tensor) func() { x.ds.mu.Lock(); return x.ds.mu.Unlock }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx := context.Background()
			_, x := scanDataset(t, 150)
			spans := x.ChunkSpans()
			if len(spans) < 2 || spans[0].Last == spans[0].First {
				t.Fatalf("spans %v: want two chunks of several rows", spans)
			}
			first, next := spans[0], spans[1].First
			r := x.NewScanReader()
			if _, err := r.At(ctx, first.First); err != nil {
				t.Fatal(err)
			}
			unlock := sync.OnceFunc(tc.lock(x))
			defer unlock()
			inside, after := make(chan error), make(chan error, 1)
			go func() {
				for i := first.First + 1; i <= first.Last; i++ {
					if _, _, err := r.StoredAt(ctx, i); err != nil {
						inside <- err
						return
					}
					arr, err := r.At(ctx, i)
					if err == nil && arr.Float64s()[0] != float64(i) {
						t.Errorf("row %d reads %v", i, arr.Float64s())
					}
					if err != nil {
						inside <- err
						return
					}
				}
				inside <- nil
				_, err := r.At(ctx, next)
				after <- err
			}()
			if err := <-inside; err != nil {
				t.Fatal(err)
			}
			select {
			case <-after:
				t.Fatalf("row %d of the next chunk read while the %s write lock was held", next, tc.name)
			default:
			}
			unlock()
			if err := <-after; err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestKeptReadersSeeEveryRemap: a reader whose slot holds a row's chunk reads
// the value written after each write that remaps rows of a landed chunk —
// SetAt, Rechunk, a re-tile (SetAt of a tiled row) and a Merge that updates
// the row — and resolves the row to the chunk the tensor now binds it to.
func TestKeptReadersSeeEveryRemap(t *testing.T) {
	ctx := context.Background()
	square := func(base int) *tensor.NDArray {
		vals := make([]float64, 400) // 1 600 bytes: tiled under smallBounds
		for i := range vals {
			vals[i] = float64(base + i)
		}
		arr, err := tensor.FromFloat64s(tensor.Int32, []int{20, 20}, vals)
		if err != nil {
			t.Fatal(err)
		}
		return arr
	}
	for _, tc := range []struct {
		name string
		// write builds the tensor with rows 4 and 5 landed, hands it to
		// read, which reads both through the kept reader, leaving row 4's
		// chunk in its slot (row 5 shares it unless it is tiled), then
		// writes; want is row 5 afterwards.
		write func(t *testing.T, read func(*Tensor)) (x *Tensor, want *tensor.NDArray)
	}{
		{"SetAt", func(t *testing.T, read func(*Tensor)) (*Tensor, *tensor.NDArray) {
			ds, _ := newTestDataset(t)
			x := landedInts(t, ds, 60)
			read(x)
			want := tensor.Scalar(tensor.Int32, 777)
			if err := x.SetAt(ctx, 5, want); err != nil {
				t.Fatal(err)
			}
			return x, want
		}},
		{"Rechunk", func(t *testing.T, read func(*Tensor)) (*Tensor, *tensor.NDArray) {
			ds, _ := newTestDataset(t)
			x := landedInts(t, ds, 60)
			read(x)
			if err := x.Rechunk(ctx); err != nil {
				t.Fatal(err)
			}
			return x, tensor.Scalar(tensor.Int32, 5)
		}},
		{"re-tile", func(t *testing.T, read func(*Tensor)) (*Tensor, *tensor.NDArray) {
			ds, _ := newTestDataset(t)
			x, err := ds.CreateTensor(ctx, TensorSpec{Name: "x", Dtype: tensor.Int32, Bounds: smallBounds})
			if err != nil {
				t.Fatal(err)
			}
			appendInts(t, x, identityInts(5)...)
			if err := x.Append(ctx, square(0)); err != nil {
				t.Fatal(err)
			}
			if err := ds.Flush(ctx); err != nil {
				t.Fatal(err)
			}
			read(x)
			want := square(1000)
			if err := x.SetAt(ctx, 5, want); err != nil {
				t.Fatal(err)
			}
			return x, want
		}},
		{"Merge", func(t *testing.T, read func(*Tensor)) (*Tensor, *tensor.NDArray) {
			ds, _ := newTestDataset(t)
			landedInts(t, ds, 60)
			if _, err := ds.Commit(ctx, "base"); err != nil {
				t.Fatal(err)
			}
			if err := ds.Checkout(ctx, "dev", true); err != nil {
				t.Fatal(err)
			}
			want := tensor.Scalar(tensor.Int32, 777)
			if err := ds.Tensor("x").SetAt(ctx, 5, want); err != nil {
				t.Fatal(err)
			}
			if _, err := ds.Commit(ctx, "update"); err != nil {
				t.Fatal(err)
			}
			if err := ds.Checkout(ctx, "main", false); err != nil {
				t.Fatal(err)
			}
			x := ds.Tensor("x")
			read(x)
			if err := ds.Merge(ctx, "dev", MergeTheirs); err != nil {
				t.Fatal(err)
			}
			return x, want
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var r *ScanReader
			x, want := tc.write(t, func(x *Tensor) {
				r = x.NewScanReader()
				for _, row := range []uint64{5, 4} {
					if _, err := r.At(ctx, row); err != nil {
						t.Fatal(err)
					}
				}
				if r.span.first > 4 || r.span.last < 4 {
					t.Fatalf("the slot holds rows [%d, %d], want row 4", r.span.first, r.span.last)
				}
			})
			got, err := r.At(ctx, 5)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want) {
				t.Fatalf("the kept reader reads row 5 = %v after the write, want %v", got.Float64s(), want.Float64s())
			}
			if got, err := r.At(ctx, 4); err != nil || got.Float64s()[0] != 4 {
				t.Fatalf("the kept reader reads row 4 = %v, %v after the write", got, err)
			}
			if id, _, err := x.ChunkOf(4); err != nil || r.span.id != id {
				t.Fatalf("the slot holds chunk %d, the tensor binds row 4 to %d (%v)", r.span.id, id, err)
			}
		})
	}
}

// landedInts creates int32 tensor x on ds with rows 0..n-1 in landed chunks
// of smallBounds.
func landedInts(t *testing.T, ds *Dataset, n int) *Tensor {
	t.Helper()
	x, err := ds.CreateTensor(context.Background(), TensorSpec{Name: "x", Dtype: tensor.Int32, Bounds: smallBounds})
	if err != nil {
		t.Fatal(err)
	}
	appendInts(t, x, identityInts(n)...)
	if err := ds.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	return x
}

// TestSlotRowsAllocateNothing: inside the slot's span, a kept reader's
// StoredAt and a RowReader's Row of a one-sample row allocate nothing.
func TestSlotRowsAllocateNothing(t *testing.T) {
	ctx := context.Background()
	_, x := scanDataset(t, 150)
	span := x.ChunkSpans()[0]
	i := span.First
	next := func() uint64 {
		if i++; i > span.Last {
			i = span.First
		}
		return i
	}
	r, rr := x.NewScanReader(), x.RowsFrom(x)
	if _, _, err := r.StoredAt(ctx, i); err != nil {
		t.Fatal(err)
	}
	if _, err := rr.Row(ctx, i); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() {
		if _, _, err := r.StoredAt(ctx, next()); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("StoredAt inside the slot's span: %v allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		if _, err := rr.Row(ctx, next()); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("RowReader.Row of a one-sample row inside the slot's span: %v allocs/op, want 0", n)
	}
}
