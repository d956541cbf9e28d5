package core

import (
	"context"
	"runtime"
	"sync"
	"testing"

	"repro/internal/chunk"
	"repro/internal/storage"
	"repro/internal/tensor"
)

// BenchmarkScanReaderParallel reads 4 096 rows of [16]int32 (four 64 KiB
// chunks on storage.Memory, decoded once into the handle's cache) in order
// on GOMAXPROCS goroutines, each with a reader of its own: the read path's
// cost per row and what a second reader adds to it (run it at -cpu 1,2).
// ns/op is wall time per row across all goroutines, so readers that scale
// halve it from -cpu 1 to -cpu 2 on two idle cores. StoredAt serves the
// stored sample; At decodes it into an arena Reset per row, as the TQL scan
// does.
func BenchmarkScanReaderParallel(b *testing.B) {
	const n = 4096
	ctx := context.Background()
	ds, err := Create(ctx, storage.NewMemory(), "bench")
	if err != nil {
		b.Fatal(err)
	}
	x, err := ds.CreateTensor(ctx, TensorSpec{
		Name: "x", Dtype: tensor.Int32,
		Bounds: chunk.Bounds{Min: 32 << 10, Target: 64 << 10, Max: 128 << 10},
	})
	if err != nil {
		b.Fatal(err)
	}
	row := make([]float64, 16)
	for i := 0; i < n; i++ {
		row[0] = float64(i)
		arr, err := tensor.FromFloat64s(tensor.Int32, []int{16}, row)
		if err != nil {
			b.Fatal(err)
		}
		if err := x.Append(ctx, arr); err != nil {
			b.Fatal(err)
		}
	}
	if err := ds.Flush(ctx); err != nil {
		b.Fatal(err)
	}
	if _, err := x.At(ctx, 0); err != nil { // land the chunks in the handle's cache
		b.Fatal(err)
	}
	// Each of GOMAXPROCS goroutines reads its share of b.N rows in order
	// with a reader of its own; no counter is shared between them.
	parallel := func(b *testing.B, newRead func() (read func(uint64) error, done func())) {
		procs := runtime.GOMAXPROCS(0)
		b.ReportAllocs()
		b.ResetTimer()
		var wg sync.WaitGroup
		for g := 0; g < procs; g++ {
			wg.Add(1)
			go func(rows int) {
				defer wg.Done()
				read, done := newRead()
				defer done()
				for i := 0; i < rows; i++ {
					if err := read(uint64(i % n)); err != nil {
						b.Error(err)
						return
					}
				}
			}((b.N + g) / procs)
		}
		wg.Wait()
	}
	b.Run("StoredAt", func(b *testing.B) {
		parallel(b, func() (func(uint64) error, func()) {
			r := x.NewScanReader()
			return func(i uint64) error {
				_, _, err := r.StoredAt(ctx, i)
				return err
			}, func() {}
		})
	})
	b.Run("At/arena", func(b *testing.B) {
		parallel(b, func() (func(uint64) error, func()) {
			r, a := x.NewScanReader(), chunk.NewArena()
			r.SetArena(a)
			return func(i uint64) error {
				_, err := r.At(ctx, i)
				a.Reset()
				return err
			}, a.Release
		})
	})
}
