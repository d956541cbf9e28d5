package core

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/chunk"
	"repro/internal/storage"
	"repro/internal/tensor"
)

// stripAllocRatio reads one strip of 16 raw chunks, 16 KiB frames at 16 a
// chunk, n times over an LRU → Verify → Memory chain: each time it evicts
// the strip, prefetches it as one coalesced strip and reads every chunk
// back with ReadChunk. It returns the bytes allocated per strip byte.
// The origin's copy (Memory.GetRanges, standing in for the network read) is
// the one allocation of the strip's size the read path may make.
func stripAllocRatio(tb testing.TB, n int) float64 {
	tb.Helper()
	ctx := context.Background()
	mem := storage.NewMemory()
	ds, err := Create(ctx, mem, "strip")
	if err != nil {
		tb.Fatal(err)
	}
	const frame, perChunk, chunks = 16 << 10, 16, 16
	x, err := ds.CreateTensor(ctx, TensorSpec{Name: "x", Dtype: tensor.UInt8,
		Bounds: chunk.Bounds{Min: frame, Target: perChunk * frame, Max: 2 * perChunk * frame}})
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < perChunk*chunks; i++ {
		arr, err := tensor.New(tensor.UInt8, frame)
		if err != nil {
			tb.Fatal(err)
		}
		if err := x.Append(ctx, arr); err != nil {
			tb.Fatal(err)
		}
	}
	if err := ds.Flush(ctx); err != nil {
		tb.Fatal(err)
	}
	cache := storage.NewLRU(storage.NewVerify(mem, storage.VerifyOptions{}), 64<<20)
	back, err := Open(ctx, cache)
	if err != nil {
		tb.Fatal(err)
	}
	x = back.Tensor("x")
	var ids []uint64
	var keys []string
	var stripBytes int64
	for _, sp := range x.ChunkSpans() {
		ids = append(ids, sp.ChunkID)
		key := x.ChunkIdentity(sp.ChunkID)
		keys = append(keys, key)
		size, err := mem.Size(ctx, key)
		if err != nil {
			tb.Fatal(err)
		}
		stripBytes += size
	}
	if len(ids) != chunks {
		tb.Fatalf("%d chunks, want %d", len(ids), chunks)
	}
	read := func() {
		for _, k := range keys {
			storage.Evict(cache, k)
		}
		if claimed := x.prefetch(ctx, ids, nil); claimed != chunks {
			tb.Fatalf("prefetch claimed %d of %d chunks", claimed, chunks)
		}
		for _, id := range ids {
			if _, err := x.ReadChunk(ctx, id); err != nil {
				tb.Fatal(err)
			}
		}
	}
	opened := cache.Stats() // Open's own reads
	read()                  // warm the pools and maps the path grows once
	if b, ok := tb.(*testing.B); ok {
		b.ResetTimer() // ns/op and B/op are per strip read
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		read()
	}
	runtime.ReadMemStats(&after)
	// A read that finds its chunk still on the wire joins the prefetch's
	// flight: a miss, but a coalesced one.
	st := cache.Stats()
	if misses := st.Misses - opened.Misses; st.Prefetched != int64(chunks*(n+1)) || misses != st.Coalesced {
		tb.Fatalf("%d prefetched, %d misses, %d coalesced: a read went to the origin on its own",
			st.Prefetched, misses, st.Coalesced)
	}
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(int64(n)*stripBytes)
}

// TestPrefetchedStripAllocBytes: from the wire to ReadChunk, a
// prefetched strip costs the program no copy of its own: at most 1.1× the
// strip's bytes are allocated, the origin's copy and the decode's sample
// directories.
func TestPrefetchedStripAllocBytes(t *testing.T) {
	if r := stripAllocRatio(t, 4); r > 1.1 {
		t.Fatalf("a prefetched strip read allocates %.2f× its bytes, want ≤ 1.1×", r)
	}
}

// BenchmarkPrefetchedStripRead reports the same ratio as allocB/stripB.
func BenchmarkPrefetchedStripRead(b *testing.B) {
	b.ReportMetric(stripAllocRatio(b, b.N), "allocB/stripB")
}
