package core

import (
	"context"
	"testing"

	"repro/internal/chunk"
	"repro/internal/tensor"
)

// TestChunkCacheAdmitRule: a loaded chunk is kept when it fits its shard or
// its key is pinned, and never otherwise, so a cache nobody pins peaks
// within its capacity.
func TestChunkCacheAdmitRule(t *testing.T) {
	const capacity = 100 // one shard
	cases := []struct {
		name   string
		size   int
		pinned bool
		admit  bool
	}{
		{"fits its shard", 64, false, true},
		{"over its shard, unpinned", 128, false, false},
		{"over its shard, pinned", 128, true, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := NewChunkCache(capacity)
			key := ChunkKey{scope: 1, obj: "versions/v/tensors/x/chunks/0"}
			if tc.pinned {
				c.Pin(key)
			}
			loaded, _, _, err := c.Load(context.Background(), key, func() (*chunk.Chunk, error) {
				return chunk.FromSamples([]chunk.Sample{{Data: make([]byte, tc.size)}}), nil
			})
			if err != nil || loaded.Len() != 1 || loaded.Bytes() != int64(tc.size) {
				t.Fatalf("Load = %v, %v; want the loaded chunk whether kept or not", loaded, err)
			}
			st := c.Stats()
			if c.Cached(key) != tc.admit || st.Entries != map[bool]int{false: 0, true: 1}[tc.admit] {
				t.Fatalf("cached %v with %d entries, want admitted %v", c.Cached(key), st.Entries, tc.admit)
			}
			if st.Decodes != 1 {
				t.Fatalf("%d decodes, want 1", st.Decodes)
			}
			if !tc.pinned && st.PeakBytes > capacity {
				t.Fatalf("unpinned cache peaked at %d bytes, capacity %d", st.PeakBytes, capacity)
			}
		})
	}
}

// TestRewriteLeavesOneCacheEntry: a write of a chunk drops the handle
// cache's entry of the bytes before it, so rewriting one chunk again and
// again keeps one entry of one chunk's bytes, not one per rewrite.
func TestRewriteLeavesOneCacheEntry(t *testing.T) {
	ctx := context.Background()
	ds, _ := newTestDataset(t)
	x, err := ds.CreateTensor(ctx, TensorSpec{Name: "x", Dtype: tensor.Int32, ChunkCompression: "lz4"})
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]int, 120)
	for i := range vals {
		vals[i] = i
	}
	appendInts(t, x, vals...)
	if err := ds.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if x.NumChunks() != 1 {
		t.Fatalf("%d chunks, want 1", x.NumChunks())
	}
	readInt(t, x, 40) // the landed chunk enters the cache
	for round := 1; round <= 5; round++ {
		if err := x.SetAt(ctx, 40, tensor.Scalar(tensor.Int32, float64(1000*round))); err != nil {
			t.Fatal(err)
		}
		if err := ds.Flush(ctx); err != nil {
			t.Fatal(err)
		}
		if got := readInt(t, x, 40); got != 1000*round {
			t.Fatalf("round %d: x[40] = %d, want %d", round, got, 1000*round)
		}
		st := ds.ChunkCacheStats()
		if st.Entries != 1 || st.UsedBytes != 120*4 {
			t.Fatalf("round %d: %d entries of %d B, want 1 of %d B", round, st.Entries, st.UsedBytes, 120*4)
		}
	}
}
