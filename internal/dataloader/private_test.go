package dataloader

import (
	"bytes"
	"context"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/storage"
	"repro/internal/tensor"
)

// TestPublicReadsReturnPrivateMemory: every public read hands the caller its
// own memory, though the byte cache under it hands every reader the one
// cached object. Writing into what Tensor.At, Tensor.RawAt, Tensor.Slice,
// ScanReader.At and a loader batch's Stacked and Samples returned changes
// nothing a later read sees, and no read after the warm-up reaches the origin, so nothing
// failed a check and was healed.
func TestPublicReadsReturnPrivateMemory(t *testing.T) {
	const rows = 64
	ctx := context.Background()
	origin := storage.NewCounting(storage.NewMemory())
	loaderDataset(t, origin, rows)
	cache := storage.NewLRU(storage.NewVerify(origin, storage.VerifyOptions{}), 1<<30)
	ds, err := core.Open(ctx, cache)
	if err != nil {
		t.Fatal(err)
	}
	x := ds.Tensor("x")
	at := func(i int) *tensor.NDArray {
		t.Helper()
		arr, err := x.At(ctx, uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		return arr
	}
	want := make([][]byte, rows)
	for i := range want {
		want[i] = slices.Clone(at(i).Bytes())
	}
	opts := Options{BatchSize: 8, Workers: 2}
	wantHash, _, _ := epochHash(t, ds, opts)
	origin.Reset()

	scribble := func(b []byte) {
		for i := range b {
			b[i] ^= 0xFF
		}
	}
	reread := func(after string) {
		t.Helper()
		for i := range want {
			if got := at(i).Bytes(); !bytes.Equal(got, want[i]) {
				t.Fatalf("after writing into %s: row %d reads %v, want %v", after, i, got, want[i])
			}
		}
		h, n, l := epochHash(t, ds, opts)
		if err := l.Err(); err != nil || n != rows || h != wantHash {
			t.Fatalf("after writing into %s: epoch of %d rows (err %v) differs from the first", after, n, err)
		}
	}

	for i := range want {
		scribble(at(i).Bytes())
	}
	reread("Tensor.At")
	for i := range want {
		raw, _, err := x.RawAt(ctx, uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		scribble(raw)
	}
	reread("Tensor.RawAt")
	for i := range want {
		// One range on the first axis of a raw sample in an uncompressed
		// chunk: a byte-range read, which a cache hit serves as a sub-slice.
		part, err := x.Slice(ctx, uint64(i), []tensor.Range{{Start: 1, Stop: 3}})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(part.Bytes(), want[i][4:12]) {
			t.Fatalf("Slice(%d) = %v, want %v", i, part.Bytes(), want[i][4:12])
		}
		scribble(part.Bytes())
	}
	reread("Tensor.Slice")
	r := x.NewScanReader()
	for i := range want {
		arr, err := r.At(ctx, uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		scribble(arr.Bytes())
		if again, err := r.At(ctx, uint64(i)); err != nil || !bytes.Equal(again.Bytes(), want[i]) {
			t.Fatalf("ScanReader.At(%d) after a write into its last result: %v, %v", i, again, err)
		}
	}
	reread("ScanReader.At")
	l := ForDataset(ds, opts)
	for b := range l.Batches(ctx) {
		for _, arr := range b.Stacked {
			scribble(arr.Bytes())
		}
		for _, s := range b.Samples {
			for _, arr := range s {
				scribble(arr.Bytes())
			}
		}
	}
	if err := l.Err(); err != nil {
		t.Fatal(err)
	}
	reread("a loader batch's Stacked and Samples")

	if st := cache.Stats(); st.CorruptionsDetected != 0 || st.CorruptionsRepaired != 0 {
		t.Fatalf("verify counted %d corruptions, %d heals", st.CorruptionsDetected, st.CorruptionsRepaired)
	}
	if n := origin.Snapshot().Requests(); n != 0 {
		t.Fatalf("%d origin requests after the warm-up: a read failed a check and re-fetched", n)
	}
}
