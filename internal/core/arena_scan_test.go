package core

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/chunk"
	"repro/internal/storage"
	"repro/internal/tensor"
)

// TestScanReaderArenaMatchesHeapPath: installing an arena changes where the
// decoded payload bytes live, never what they are.
func TestScanReaderArenaMatchesHeapPath(t *testing.T) {
	const n = 150
	ctx := context.Background()
	_, x := scanDataset(t, n)

	plain := x.NewScanReader()
	arena := chunk.NewArena()
	arenaReader := x.NewScanReader()
	arenaReader.SetArena(arena)

	for i := uint64(0); i < n; i++ {
		want, err := plain.At(ctx, i)
		if err != nil {
			t.Fatal(err)
		}
		got, err := arenaReader.At(ctx, i)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("row %d: arena decode differs from heap decode", i)
		}
	}
	// SetArena(nil) restores plain heap allocation mid-stream.
	arenaReader.SetArena(nil)
	if _, err := arenaReader.At(ctx, 0); err != nil {
		t.Fatal(err)
	}
}

// TestScanReaderArenaCutsAllocs asserts the decode path's allocs/op drop
// when an arena serves the payload copies: the per-sample make+copy
// disappears into slab bump allocation.
func TestScanReaderArenaCutsAllocs(t *testing.T) {
	const n = 200
	ctx := context.Background()
	_, x := scanDataset(t, n)

	measure := func(r *ScanReader) float64 {
		// Warm the reader's chunk slot so the measured loop never pays a
		// fetch+decode.
		var i uint64
		return testing.AllocsPerRun(400, func() {
			if _, err := r.At(ctx, i%n); err != nil {
				t.Fatal(err)
			}
			i++
		})
	}

	plain := measure(x.NewScanReader())
	withArena := x.NewScanReader()
	withArena.SetArena(chunk.NewArena())
	arenaAllocs := measure(withArena)

	if arenaAllocs >= plain {
		t.Fatalf("arena did not cut decode allocations: %.1f allocs/op with arena, %.1f without",
			arenaAllocs, plain)
	}
}

// BenchmarkScanReaderAt reports the steady-state per-sample cost of the
// chunk-granular read path with and without a buffer arena; the allocs/op
// column is the headline (ISSUE: near-zero per-sample heap allocation for
// payload copies).
func BenchmarkScanReaderAt(b *testing.B) {
	const n = 512
	ctx := context.Background()
	ds, err := Create(ctx, storage.NewMemory(), "bench")
	if err != nil {
		b.Fatal(err)
	}
	x, err := ds.CreateTensor(ctx, TensorSpec{
		Name: "x", Dtype: tensor.Int32,
		Bounds: chunk.Bounds{Min: 1 << 10, Target: 4 << 10, Max: 8 << 10},
	})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < n; i++ {
		arr, _ := tensor.FromFloat64s(tensor.Int32, []int{16}, make([]float64, 16))
		if err := x.Append(ctx, arr); err != nil {
			b.Fatal(err)
		}
	}
	if err := ds.Flush(ctx); err != nil {
		b.Fatal(err)
	}

	run := func(b *testing.B, arena *chunk.Arena) {
		r := x.NewScanReader()
		r.SetArena(arena)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := r.At(ctx, uint64(i%n)); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("heap", func(b *testing.B) { run(b, nil) })
	b.Run("arena", func(b *testing.B) { run(b, chunk.NewArena()) })
}
