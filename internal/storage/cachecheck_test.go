//go:build cachecheck

package storage_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/storage"
)

// mustPanicNaming runs f and fails unless it panics with a message naming key.
func mustPanicNaming(t *testing.T, key string, f func()) {
	t.Helper()
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), key) {
			t.Fatalf("recovered %v, want a panic naming %q", r, key)
		}
	}()
	f()
}

// TestCacheCheckCatchesAWriter: with the cachecheck tag, bytes written after
// admit are caught on the next hit and on eviction, naming the key.
func TestCacheCheckCatchesAWriter(t *testing.T) {
	ctx := context.Background()
	t.Run("hit", func(t *testing.T) {
		l := storage.NewLRU(storage.NewMemory(), 1<<20)
		if err := l.Put(ctx, "chunks/7", []byte("write-once")); err != nil {
			t.Fatal(err)
		}
		got, err := l.Get(ctx, "chunks/7")
		if err != nil {
			t.Fatal(err)
		}
		got[0] = 'X' // a reader breaking the Provider contract
		mustPanicNaming(t, "chunks/7", func() { _, _ = l.Get(ctx, "chunks/7") })
	})
	t.Run("range entry", func(t *testing.T) {
		mem := storage.NewMemory()
		if err := mem.Put(ctx, "chunks/8", []byte("write-once bytes")); err != nil {
			t.Fatal(err)
		}
		l := storage.NewLRU(mem, 1<<20)
		reqs := []storage.RangeReq{{Key: "chunks/8", Offset: 6, Length: 4}}
		got, err := l.GetRanges(ctx, reqs)
		if err != nil {
			t.Fatal(err)
		}
		got[0][0] = 'X'
		mustPanicNaming(t, "chunks/8", func() { _, _ = l.GetRanges(ctx, reqs) })
	})
	t.Run("evict", func(t *testing.T) {
		c := storage.NewCache(8, 1, storage.CacheFuncs[string, []byte]{
			Hash: func(k string) uint64 { return storage.HashString(storage.HashSeed, k) },
			Size: func(v []byte) int64 { return int64(len(v)) },
		})
		v := []byte("abcd")
		c.Add("old", v)
		v[3] = 'X'
		mustPanicNaming(t, "old", func() { c.Add("new", []byte("efghi")) })
	})
}
