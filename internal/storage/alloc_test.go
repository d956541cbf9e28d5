package storage

import (
	"context"
	"testing"
)

// TestLRUGetHitAllocs guards the byte cache's hit path: one allocation, the
// caller's private copy of the object.
func TestLRUGetHitAllocs(t *testing.T) {
	ctx := context.Background()
	l := NewLRU(NewMemory(), 1<<20)
	if err := l.Put(ctx, "k", make([]byte, 4096)); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := l.Get(ctx, "k"); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Fatalf("LRU.Get hit = %.0f allocs/op, want 1 (the copy-out)", allocs)
	}
}
