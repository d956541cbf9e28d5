package storage

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
)

// TestLRUGetHitAllocs guards the byte cache's hit path: no allocation, since
// every reader is handed the cached object itself.
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
	if allocs > 0 {
		t.Fatalf("LRU.Get hit = %.0f allocs/op, want 0", allocs)
	}
}

// BenchmarkLRUGetHit measures the byte cache's hit path under parallel
// readers spread over the shards, the way loader workers probe it.
func BenchmarkLRUGetHit(b *testing.B) {
	ctx := context.Background()
	l := NewShardedLRU(NewMemory(), 64<<20, DefaultShards)
	keys := make([]string, 256)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%03d", i)
		if err := l.Put(ctx, keys[i], make([]byte, 4096)); err != nil {
			b.Fatal(err)
		}
	}
	var reader atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		// Each reader starts at its own key so they are not in lock step.
		for i := int(reader.Add(1)) * 37; pb.Next(); i++ {
			if _, err := l.Get(ctx, keys[i%len(keys)]); err != nil {
				b.Error(err)
				return
			}
		}
	})
}
