package core

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/chunk"
	"repro/internal/storage"
	"repro/internal/tensor"
)

// TestAutotuneGoldenDeterminism is the ingest autotuner's acceptance test:
// with AutotuneChunkBytes set, the stored bytes are a pure function of the
// append sequence — a 1-lane reference build, a 1-lane and a 16-lane flush
// pipeline all produce byte-identical objects — and the grown targets
// actually change the layout (fewer, larger chunk objects than the static
// policy).
func TestAutotuneGoldenDeterminism(t *testing.T) {
	ctx := context.Background()
	const autoCap = 4096

	static := buildGoldenDataset(t, WriteOptions{})
	staticChunks := countChunkKeys(snapshotKeys(t, static))

	ref := buildGoldenDataset(t, WriteOptions{FlushWorkers: 1, AutotuneChunkBytes: autoCap})
	refKeys := snapshotKeys(t, ref)
	if len(refKeys) == 0 {
		t.Fatal("autotuned golden build produced no objects")
	}
	autoChunks := countChunkKeys(refKeys)
	if autoChunks >= staticChunks {
		t.Fatalf("autotune left the layout unchanged: %d chunk objects with cap %d, %d without",
			autoChunks, autoCap, staticChunks)
	}

	for _, workers := range []int{1, 16} {
		t.Run(fmt.Sprintf("flushworkers-%d", workers), func(t *testing.T) {
			parallel := buildGoldenDataset(t, WriteOptions{FlushWorkers: workers, AutotuneChunkBytes: autoCap})
			parallelKeys := snapshotKeys(t, parallel)
			if got, want := fmt.Sprint(parallelKeys), fmt.Sprint(refKeys); got != want {
				t.Fatalf("stored key sets differ under autotune:\nref:      %v\nparallel: %v",
					refKeys, parallelKeys)
			}
			for _, key := range refKeys {
				want, err := ref.Get(ctx, key)
				if err != nil {
					t.Fatal(err)
				}
				got, err := parallel.Get(ctx, key)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("object %q differs between the 1-lane reference and %d-worker autotuned flush (%d vs %d bytes)",
						key, workers, len(want), len(got))
				}
			}
		})
	}
}

func countChunkKeys(keys []string) int {
	n := 0
	for _, k := range keys {
		if strings.Contains(k, "/chunks/") {
			n++
		}
	}
	return n
}

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
