package storage

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// TestFSListMatchesMemory lists one key set through FS and Memory under
// prefixes that name a directory, part of a file name at the root (the
// baselines' shard files), part of a directory name, and nothing at all: the
// two agree, and FS hides its in-flight temp files.
func TestFSListMatchesMemory(t *testing.T) {
	ctx := context.Background()
	fsp, err := NewFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	mem := NewMemory()
	for _, key := range []string{
		"roots/0000000000000001", "roots/0000000000000002", "roots/stray",
		"versions/v00000001/state.json",
		"versions/v00000001/tensors/x/chunks/0000000000000000",
		"versions/v00000001/tensors/x/chunks/0000000000000001",
		"versions/v00000010/tensors/y/chunks/0000000000000000",
		"shard-00000", "shard-00001", "sq-shard-00000", "part-00000", "partial/x",
	} {
		for _, p := range []Provider{fsp, mem} {
			if err := p.Put(ctx, key, []byte(key)); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, dir := range []string{"roots", "versions/v00000001/tensors/x/chunks", "."} {
		if err := os.WriteFile(filepath.Join(fsp.Root(), dir, ".tmp-123"), []byte("torn"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, prefix := range []string{
		"", "roots/", "roots/00", "versions/", "versions/v0000000", "versions/v00000001",
		"versions/v00000001/tensors/x/chunks/", "shard-", "sq-shard-", "part-", "part",
		"missing/", "missing/deeper/", "roots/0000000000000001/",
	} {
		got, err := fsp.List(ctx, prefix)
		if err != nil {
			t.Fatalf("FS.List(%q): %v", prefix, err)
		}
		want, err := mem.List(ctx, prefix)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("FS.List(%q) = %v, want %v", prefix, got, want)
		}
	}
}

// BenchmarkFSList lists roots/ beside 1 000 and beside 10 000 chunk files:
// the cost follows the listed directory, not the dataset, so the two are
// within noise of each other.
func BenchmarkFSList(b *testing.B) {
	ctx := context.Background()
	for _, chunks := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("chunks=%d", chunks), func(b *testing.B) {
			fsp, err := NewFS(b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			for _, key := range []string{"roots/0000000000000001", "roots/0000000000000002"} {
				if err := fsp.Put(ctx, key, []byte("{}")); err != nil {
					b.Fatal(err)
				}
			}
			// Plain writes: the setup needs the files, not Put's fsyncs.
			dir := filepath.Join(fsp.Root(), "versions", "v00000001", "tensors", "x", "chunks")
			if err := os.MkdirAll(dir, 0o755); err != nil {
				b.Fatal(err)
			}
			for i := 0; i < chunks; i++ {
				if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("%016x", i)), []byte{1}, 0o644); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				keys, err := fsp.List(ctx, "roots/")
				if err != nil || len(keys) != 2 {
					b.Fatalf("List(roots/) = %v, %v", keys, err)
				}
			}
		})
	}
}
