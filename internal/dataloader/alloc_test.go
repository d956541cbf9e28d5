package dataloader

import (
	"context"
	"testing"

	"repro/internal/storage"
)

// TestNodeCacheHitAllocs guards the decoded-chunk hit path, the lookup every
// job of an epoch makes: it allocates what building the struct key's
// ChunkIdentity string allocates and nothing more. Nothing of the miss
// protocol (the flight key, the loader closure) may be paid for on a hit.
func TestNodeCacheHitAllocs(t *testing.T) {
	ctx := context.Background()
	ds := loaderDataset(t, storage.NewMemory(), 8)
	x := ds.Tensor("x")
	c := NewNodeCache(0)
	var led cacheLedger
	if _, err := c.get(ctx, &led, ds.ScopeID(), x, 0); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := c.get(ctx, &led, ds.ScopeID(), x, 0); err != nil {
			t.Fatal(err)
		}
	})
	key := testing.AllocsPerRun(200, func() { _ = x.ChunkIdentity(0) })
	if allocs > key {
		t.Fatalf("NodeCache hit = %.0f allocs/op, want the %.0f of building its key", allocs, key)
	}
	if st := c.Stats(); st.Decodes != 1 || st.Misses != 1 {
		t.Fatalf("decodes/misses = %d/%d, want 1/1: the measured gets were not hits", st.Decodes, st.Misses)
	}
}
