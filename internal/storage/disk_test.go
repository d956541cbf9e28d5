package storage

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// The disk-tier suite: warm restart, checksum verification of survivor
// files, LRU eviction of the on-disk population, and the batched read path.
// Plus the PR's durability satellites: FS.Put temp-file hygiene and the
// sharded LRU's remainder/bypass accounting.

func TestDiskTierWarmRestart(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	origin := NewMemory()

	d1, err := NewDisk(origin, dir, DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := d1.Put(ctx, "t/a", []byte("alpha-bytes")); err != nil {
		t.Fatal(err)
	}
	if err := d1.Put(ctx, "t/b", []byte("beta-bytes")); err != nil {
		t.Fatal(err)
	}

	// "Restart": a fresh tier over the same directory must index the
	// survivors and serve them as warm hits without touching the origin.
	d2, err := NewDisk(NewMemory(), dir, DiskOptions{}) // empty origin: a fallthrough would fail
	if err != nil {
		t.Fatal(err)
	}
	if st := d2.Stats(); st.Entries != 2 {
		t.Fatalf("restart indexed %d entries, want 2", st.Entries)
	}
	got, err := d2.Get(ctx, "t/a")
	if err != nil || !bytes.Equal(got, []byte("alpha-bytes")) {
		t.Fatalf("warm Get = %q, %v", got, err)
	}
	st := d2.Stats()
	if st.Hits != 1 || st.WarmHits != 1 {
		t.Fatalf("after warm Get: hits=%d warmHits=%d, want 1/1", st.Hits, st.WarmHits)
	}

	// A fresh miss is admitted non-warm: its later hits do not count warm.
	d3, err := NewDisk(origin, t.TempDir(), DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d3.Get(ctx, "t/a"); err != nil {
		t.Fatal(err)
	}
	if _, err := d3.Get(ctx, "t/a"); err != nil {
		t.Fatal(err)
	}
	if st := d3.Stats(); st.Misses != 1 || st.Hits != 1 || st.WarmHits != 0 {
		t.Fatalf("cold tier: hits=%d warmHits=%d misses=%d, want 1/0/1", st.Hits, st.WarmHits, st.Misses)
	}
}

func TestDiskTierVerifiesWarmFilesAgainstSeededDigests(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	origin := NewMemory()
	data := []byte("the canonical chunk bytes")

	d1, err := NewDisk(origin, dir, DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := d1.Put(ctx, "chunks/0", data); err != nil {
		t.Fatal(err)
	}

	// Corrupt the file while "the process is down".
	path := filepath.Join(dir, "chunks", "0")
	if err := os.WriteFile(path, []byte("the cAnonical chunk bytes"), 0o644); err != nil {
		t.Fatal(err)
	}

	d2, err := NewDisk(origin, dir, DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Seed the manifest digest the way core.Open does through SeedDigests.
	if n := SeedDigests(d2, map[string]uint32{"chunks/0": Checksum(data)}); n != 1 {
		t.Fatalf("SeedDigests seeded %d, want 1", n)
	}
	got, err := d2.Get(ctx, "chunks/0")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("Get after corruption = %q, %v; want healed bytes", got, err)
	}
	st := d2.Stats()
	if st.CorruptionsDetected != 1 {
		t.Fatalf("CorruptionsDetected = %d, want 1", st.CorruptionsDetected)
	}
	if st.Misses != 1 {
		t.Fatalf("corrupt read should fall through to origin once, misses = %d", st.Misses)
	}
	// The heal re-admits the good bytes: next read is a clean (cold) hit.
	if _, err := d2.Get(ctx, "chunks/0"); err != nil {
		t.Fatal(err)
	}
	if st := d2.Stats(); st.Hits != 1 || st.CorruptionsDetected != 1 {
		t.Fatalf("after heal: hits=%d corruptions=%d, want 1/1", st.Hits, st.CorruptionsDetected)
	}
}

func TestDiskTierEvictsLRUFilesAndBypassesOversize(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	d, err := NewDisk(NewMemory(), dir, DiskOptions{Capacity: 128})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Put(ctx, "a", make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	if err := d.Put(ctx, "b", make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Get(ctx, "a"); err != nil { // touch a: b becomes LRU
		t.Fatal(err)
	}
	if err := d.Put(ctx, "c", make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	st := d.Stats()
	if st.Evictions != 1 || st.UsedBytes != 128 {
		t.Fatalf("evictions=%d used=%d, want 1/128", st.Evictions, st.UsedBytes)
	}
	if _, err := os.Stat(filepath.Join(dir, "b")); !os.IsNotExist(err) {
		t.Fatalf("evicted entry's file still on disk (stat err = %v)", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "a")); err != nil {
		t.Fatalf("recently used entry's file missing: %v", err)
	}

	// An object larger than the whole tier is bypassed, not thrashed.
	if err := d.Put(ctx, "huge", make([]byte, 256)); err != nil {
		t.Fatal(err)
	}
	if st := d.Stats(); st.Bypassed != 1 {
		t.Fatalf("Bypassed = %d, want 1", st.Bypassed)
	}
	if _, err := os.Stat(filepath.Join(dir, "huge")); !os.IsNotExist(err) {
		t.Fatalf("bypassed object landed on disk (stat err = %v)", err)
	}
}

func TestDiskTierGetRangesServesCachedWholeObjects(t *testing.T) {
	ctx := context.Background()
	origin := NewCounting(NewMemory())
	d, err := NewDisk(origin, t.TempDir(), DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := origin.Put(ctx, "cold", []byte("cold-bytes")); err != nil {
		t.Fatal(err)
	}
	if err := d.Put(ctx, "warm", []byte("warm-bytes")); err != nil {
		t.Fatal(err)
	}
	origin.Reset()
	out, err := GetRanges(ctx, d, []RangeReq{
		{Key: "warm", Offset: 0, Length: -1},
		{Key: "cold", Offset: 0, Length: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out[0], []byte("warm-bytes")) || !bytes.Equal(out[1], []byte("cold-bytes")) {
		t.Fatalf("GetRanges = %q / %q", out[0], out[1])
	}
	snap := origin.Snapshot()
	if snap.Gets+snap.RangeGets+snap.BatchRanges != 1 {
		t.Fatalf("origin served %d objects, want only the cold one", snap.Gets+snap.RangeGets+snap.BatchRanges)
	}
	st := d.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("hits=%d misses=%d, want 1/1", st.Hits, st.Misses)
	}
	// The forwarded whole object was admitted on the way back.
	origin.Reset()
	if _, err := d.Get(ctx, "cold"); err != nil {
		t.Fatal(err)
	}
	if snap := origin.Snapshot(); snap.Gets != 0 {
		t.Fatalf("re-read of forwarded object hit origin (%d gets)", snap.Gets)
	}
}

// TestDiskTierCoalescesColdHerd is the herd case the RAM cache and the node
// cache already have: N readers cold-miss on one object at once and the
// origin sees exactly one Get, every reader gets its own copy of the bytes,
// and the object is on disk for the next reader.
func TestDiskTierCoalescesColdHerd(t *testing.T) {
	ctx := context.Background()
	blocking := newBlockingProvider()
	want := []byte("chunk-bytes")
	if err := blocking.Provider.Put(ctx, "hot", want); err != nil {
		t.Fatal(err)
	}
	d, err := NewDisk(blocking, t.TempDir(), DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const readers = 16
	var wg sync.WaitGroup
	errs := make([]error, readers)
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got, err := d.Get(ctx, "hot")
			if err == nil && !bytes.Equal(got, want) {
				err = fmt.Errorf("got %q", got)
			}
			errs[i] = err
			// Every reader owns its bytes: scribbling on them at once, while
			// the rest of the herd is still being served, must neither reach
			// another reader nor trip the race detector.
			for j := range got {
				got[j] ^= 0xff
			}
		}(i)
	}
	// Release the origin only once every reader has missed the index.
	for d.table.Stats().Misses < readers {
		runtime.Gosched()
	}
	close(blocking.release)
	wg.Wait()

	if got := blocking.gets.Load(); got != 1 {
		t.Fatalf("origin Gets = %d, want 1 (coalesced)", got)
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("reader %d: %v", i, err)
		}
	}
	// One reader fetched from the origin: the miss. The rest read the file
	// that fetch published: hits.
	herd := d.Stats()
	if herd.Misses != 1 || herd.Hits != readers-1 || herd.Entries != 1 {
		t.Fatalf("misses/hits/entries = %d/%d/%d, want 1/%d/1", herd.Misses, herd.Hits, herd.Entries, readers-1)
	}
	got, err := d.Get(ctx, "hot")
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("Get after the herd = %q, %v", got, err)
	}
	if st := d.Stats(); st.Hits != herd.Hits+1 || blocking.gets.Load() != 1 {
		t.Fatalf("Get after the herd: hits=%d origin Gets=%d, want %d/1", st.Hits, blocking.gets.Load(), herd.Hits+1)
	}
}

// TestFSPutCrashPathLeavesNoTempResidue is the fsync satellite's test: a
// failed publish (rename refused) must remove its temp file, and a
// successful Put must leave exactly the destination behind — no .tmp-*
// residue survives either path.
func TestFSPutCrashPathLeavesNoTempResidue(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	f, err := NewFS(dir)
	if err != nil {
		t.Fatal(err)
	}

	// Simulated crash path: the destination is occupied by a directory, so
	// the temp file is written and fsynced but the rename publish fails.
	if err := os.MkdirAll(filepath.Join(dir, "obj"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := f.Put(ctx, "obj", []byte("payload")); err == nil {
		t.Fatal("Put over a directory succeeded, want rename failure")
	}
	assertNoTempResidue(t, dir)

	// Successful path.
	if err := f.Put(ctx, "ok/obj", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	assertNoTempResidue(t, dir)
	if got, err := f.Get(ctx, "ok/obj"); err != nil || !bytes.Equal(got, []byte("payload")) {
		t.Fatalf("Get after Put = %q, %v", got, err)
	}
}

func assertNoTempResidue(t *testing.T, dir string) {
	t.Helper()
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if strings.HasPrefix(filepath.Base(path), ".tmp-") {
			t.Fatalf("temp residue survived: %s", path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestShardedLRUDistributesRemainder is the budget satellite's test: the
// capacity division remainder is spread over the leading shards instead of
// silently dropped.
func TestShardedLRUDistributesRemainder(t *testing.T) {
	l := NewShardedLRU(NewMemory(), 4099, 8)
	var total int64
	for i, s := range l.table.Stats().Shards {
		total += s.Capacity
		want := int64(512)
		if i < 3 { // 4099 = 8*512 + 3
			want = 513
		}
		if s.Capacity != want {
			t.Fatalf("shard %d capacity = %d, want %d", i, s.Capacity, want)
		}
	}
	if total != 4099 {
		t.Fatalf("shard capacities sum to %d, want the full 4099", total)
	}
}

// TestLRUBypassSurfacedInStats: objects too large for their shard used to
// bypass the cache with no signal; both the Put and the Get-fill paths must
// now count the bypass.
func TestLRUBypassSurfacedInStats(t *testing.T) {
	ctx := context.Background()
	l := NewShardedLRU(NewMemory(), 64, 1)
	if err := l.Put(ctx, "big-put", make([]byte, 128)); err != nil {
		t.Fatal(err)
	}
	if got := l.Stats().Bypassed; got != 1 {
		t.Fatalf("Bypassed after oversized Put = %d, want 1", got)
	}
	if err := l.Origin().Put(ctx, "big-get", make([]byte, 128)); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Get(ctx, "big-get"); err != nil {
		t.Fatal(err)
	}
	if got := l.Stats().Bypassed; got != 2 {
		t.Fatalf("Bypassed after oversized Get fill = %d, want 2", got)
	}
	// Objects that fit do not count.
	if err := l.Put(ctx, "small", make([]byte, 16)); err != nil {
		t.Fatal(err)
	}
	if got := l.Stats().Bypassed; got != 2 {
		t.Fatalf("Bypassed after fitting Put = %d, want 2", got)
	}
}
