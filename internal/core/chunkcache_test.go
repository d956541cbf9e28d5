package core

import (
	"context"
	"testing"

	"repro/internal/chunk"
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
			samples, _, _, err := c.Load(context.Background(), key, func() ([]chunk.Sample, error) {
				return []chunk.Sample{{Data: make([]byte, tc.size)}}, nil
			})
			if err != nil || len(samples) != 1 || len(samples[0].Data) != tc.size {
				t.Fatalf("Load = %d samples, %v; want the loaded chunk whether kept or not", len(samples), err)
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
