//go:build cachecheck

package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

	"repro/internal/chunk"
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

// TestCacheCheckCatchesAChunkWriter: with the cachecheck tag, a ChunkCache
// entry's digest covers what its readers must not write — an uncompressed
// chunk's payloads, a compressed chunk's stored blocks and the blocks reads
// have inflated — so a write into a sample read out of the cache, or into
// the stored bytes the chunk aliases, panics naming the key on the next
// hit. Blocks inflating after admit change nothing the check sees.
func TestCacheCheckCatchesAChunkWriter(t *testing.T) {
	ctx := context.Background()
	samples := make([]chunk.Sample, 40)
	for i := range samples {
		samples[i] = chunk.Sample{Shape: []int{1000}, Data: bytes.Repeat([]byte{byte(i)}, 1000)}
	}
	for _, tc := range []struct {
		name  string
		codec chunk.Codec
		write func(raw []byte, s chunk.Sample)
	}{
		{"uncompressed payload", chunk.None, func(_ []byte, s chunk.Sample) { s.Data[0] ^= 1 }},
		{"inflated payload", chunk.LZ4, func(_ []byte, s chunk.Sample) { s.Data[0] ^= 1 }},
		// The last stored byte of the last block: the table's per-block
		// entries, block count and seal follow it.
		{"stored block", chunk.LZ4, func(raw []byte, _ chunk.Sample) {
			nb := int(binary.LittleEndian.Uint32(raw[len(raw)-8:]))
			raw[len(raw)-8-8*nb-4-1] ^= 1
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			raw, err := tc.codec.Encode(samples)
			if err != nil {
				t.Fatal(err)
			}
			c := NewChunkCache(1 << 20)
			key := ChunkKey{scope: 1, obj: "versions/v/x/chunks/" + tc.name}
			open := func() (*chunk.Chunk, error) { return chunk.Open(raw) }
			hit := func() {
				if _, hit, _, err := c.Load(ctx, key, open); err != nil || !hit {
					t.Fatalf("Load = hit %v, %v; want a hit", hit, err)
				}
			}
			ch, _, _, err := c.Load(ctx, key, open)
			if err != nil {
				t.Fatal(err)
			}
			// Reads after admit inflate blocks; each hit between them passes.
			var s chunk.Sample
			for _, i := range []int{0, 17, 39} {
				if s, err = ch.Sample(i); err != nil {
					t.Fatal(err)
				}
				hit()
			}
			tc.write(raw, s)
			mustPanicNaming(t, key.obj, hit)
		})
	}
}
