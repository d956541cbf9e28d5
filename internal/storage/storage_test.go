package storage

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/simnet"
)

// providers returns one fresh instance of every Provider implementation so
// the contract tests run against all of them.
func providers(t *testing.T) map[string]Provider {
	t.Helper()
	fsp, err := NewFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	fast := simnet.Profile{Name: "fast", Lanes: 16, TimeScale: 1e9,
		ReadBytesPerSec: 1e12, WriteBytesPerSec: 1e12}
	disk, err := NewDisk(NewMemory(), t.TempDir(), DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	disarmed := NewFaulty(NewMemory(), FaultConfig{GetErrRate: 1, RangeErrRate: 1, PutErrRate: 1, MetaErrRate: 1})
	disarmed.SetArmed(false)
	return map[string]Provider{
		"memory": NewMemory(),
		"fs":     fsp,
		"sim":    NewSim(NewMemory(), fast),
		"lru":    NewLRU(NewMemory(), 1<<20),
		"prefix": NewPrefix(NewMemory(), "sub/dir"),
		"count":  NewCounting(NewMemory()),
		"disk":   disk,
		"retry":  NewRetry(NewMemory(), RetryOptions{}),
		"verify": NewVerify(NewMemory(), VerifyOptions{}),
		"faulty": disarmed,
		"flaky":  NewFlaky(NewMemory(), 0, errors.New("never injected")),
	}
}

func TestProviderContract(t *testing.T) {
	ctx := context.Background()
	for name, p := range providers(t) {
		t.Run(name, func(t *testing.T) {
			// Missing key behavior.
			if _, err := p.Get(ctx, "nope"); !IsNotFound(err) {
				t.Fatalf("Get missing: err = %v, want ErrNotFound", err)
			}
			if _, err := p.Size(ctx, "nope"); !IsNotFound(err) {
				t.Fatalf("Size missing: err = %v, want ErrNotFound", err)
			}
			if ok, err := p.Exists(ctx, "nope"); err != nil || ok {
				t.Fatalf("Exists missing = %v, %v; want false, nil", ok, err)
			}
			if err := p.Delete(ctx, "nope"); err != nil {
				t.Fatalf("Delete missing: %v", err)
			}

			// Round trip.
			data := []byte("hello tensor storage format")
			if err := p.Put(ctx, "a/b/c", data); err != nil {
				t.Fatal(err)
			}
			got, err := p.Get(ctx, "a/b/c")
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, data) {
				t.Fatalf("Get = %q, want %q", got, data)
			}
			if n, err := p.Size(ctx, "a/b/c"); err != nil || n != int64(len(data)) {
				t.Fatalf("Size = %d, %v; want %d", n, err, len(data))
			}

			// Range reads.
			got, err = p.GetRange(ctx, "a/b/c", 6, 6)
			if err != nil || string(got) != "tensor" {
				t.Fatalf("GetRange = %q, %v; want \"tensor\"", got, err)
			}
			got, err = p.GetRange(ctx, "a/b/c", 6, -1)
			if err != nil || string(got) != "tensor storage format" {
				t.Fatalf("GetRange open-ended = %q, %v", got, err)
			}
			// Truncated past-end read.
			got, err = p.GetRange(ctx, "a/b/c", int64(len(data))-3, 100)
			if err != nil || string(got) != "mat" {
				t.Fatalf("GetRange truncated = %q, %v", got, err)
			}
			// Out-of-bounds offset errors.
			if _, err := p.GetRange(ctx, "a/b/c", int64(len(data))+1, 1); err == nil {
				t.Fatal("GetRange past end: want error")
			}

			// Overwrite.
			if err := p.Put(ctx, "a/b/c", []byte("v2")); err != nil {
				t.Fatal(err)
			}
			if got, _ := p.Get(ctx, "a/b/c"); string(got) != "v2" {
				t.Fatalf("after overwrite Get = %q, want v2", got)
			}

			// List ordering and prefix filter.
			for _, k := range []string{"t/img/chunk2", "t/img/chunk0", "t/img/chunk1", "t/lbl/chunk0"} {
				if err := p.Put(ctx, k, []byte{1}); err != nil {
					t.Fatal(err)
				}
			}
			keys, err := p.List(ctx, "t/img/")
			if err != nil {
				t.Fatal(err)
			}
			want := []string{"t/img/chunk0", "t/img/chunk1", "t/img/chunk2"}
			if !reflect.DeepEqual(keys, want) {
				t.Fatalf("List = %v, want %v", keys, want)
			}

			// Batched reads agree with per-key reads, whether the layer
			// serves the batch itself (BatchProvider) or is read key by key.
			reqs := []RangeReq{{Key: "a/b/c", Length: -1}, {Key: "t/img/chunk1", Length: -1}, {Key: "a/b/c", Offset: 1, Length: 1}}
			batch, err := GetRanges(ctx, p, reqs)
			if err != nil || len(batch) != len(reqs) {
				t.Fatalf("GetRanges = %d results, %v; want %d", len(batch), err, len(reqs))
			}
			for i, r := range reqs {
				single, err := p.GetRange(ctx, r.Key, r.Offset, r.Length)
				if r.whole() {
					single, err = p.Get(ctx, r.Key)
				}
				if err != nil || !bytes.Equal(batch[i], single) {
					t.Fatalf("GetRanges[%d] = %q, per-key read = %q, %v", i, batch[i], single, err)
				}
			}

			// Delete removes.
			if err := p.Delete(ctx, "a/b/c"); err != nil {
				t.Fatal(err)
			}
			if ok, _ := p.Exists(ctx, "a/b/c"); ok {
				t.Fatal("object survived delete")
			}
		})
	}
}

func TestMemoryIsolation(t *testing.T) {
	ctx := context.Background()
	m := NewMemory()
	buf := []byte("mutable")
	if err := m.Put(ctx, "k", buf); err != nil {
		t.Fatal(err)
	}
	buf[0] = 'X' // caller mutates its slice after Put
	got, _ := m.Get(ctx, "k")
	if string(got) != "mutable" {
		t.Fatalf("Put did not copy: got %q", got)
	}
	got[0] = 'Y' // caller mutates returned slice
	again, _ := m.Get(ctx, "k")
	if string(again) != "mutable" {
		t.Fatalf("Get did not copy: got %q", again)
	}
}

func TestLRUHitsAndEviction(t *testing.T) {
	ctx := context.Background()
	origin := NewCounting(NewMemory())
	// One shard: globally exact LRU ordering makes eviction deterministic.
	cache := NewShardedLRU(origin, 100, 1)

	if err := cache.Put(ctx, "a", make([]byte, 40)); err != nil {
		t.Fatal(err)
	}
	if err := cache.Put(ctx, "b", make([]byte, 40)); err != nil {
		t.Fatal(err)
	}
	origin.Reset()

	// Both resident: no origin reads.
	if _, err := cache.Get(ctx, "a"); err != nil {
		t.Fatal(err)
	}
	if _, err := cache.Get(ctx, "b"); err != nil {
		t.Fatal(err)
	}
	if gets := origin.Snapshot().Gets; gets != 0 {
		t.Fatalf("origin Gets = %d, want 0 (cache hits)", gets)
	}

	// Insert c (40 bytes): capacity 100 forces eviction of LRU entry.
	// Access order so far: a, b → least recent is a.
	if err := cache.Put(ctx, "c", make([]byte, 40)); err != nil {
		t.Fatal(err)
	}
	if _, err := cache.Get(ctx, "a"); err != nil {
		t.Fatal(err)
	}
	if gets := origin.Snapshot().Gets; gets != 1 {
		t.Fatalf("origin Gets = %d, want 1 (a was evicted)", gets)
	}
	stats := cache.Stats()
	if stats.Hits == 0 || stats.Misses == 0 {
		t.Fatalf("stats hits=%d misses=%d, want both > 0", stats.Hits, stats.Misses)
	}
	if stats.UsedBytes > 100 {
		t.Fatalf("resident bytes %d exceed capacity", stats.UsedBytes)
	}
}

func TestLRUOversizeObjectBypassesCache(t *testing.T) {
	ctx := context.Background()
	origin := NewCounting(NewMemory())
	cache := NewLRU(origin, 10)
	if err := cache.Put(ctx, "big", make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	if used := cache.Stats().UsedBytes; used != 0 {
		t.Fatalf("oversize object cached: used = %d", used)
	}
	if _, err := cache.Get(ctx, "big"); err != nil {
		t.Fatal(err)
	}
	if gets := origin.Snapshot().Gets; gets != 1 {
		t.Fatalf("origin Gets = %d, want 1", gets)
	}
}

func TestLRURangeReadDoesNotPromote(t *testing.T) {
	ctx := context.Background()
	origin := NewCounting(NewMemory())
	cache := NewLRU(origin, 1<<20)
	if err := origin.Put(ctx, "chunk", make([]byte, 1000)); err != nil {
		t.Fatal(err)
	}
	if _, err := cache.GetRange(ctx, "chunk", 10, 10); err != nil {
		t.Fatal(err)
	}
	if used := cache.Stats().UsedBytes; used != 0 {
		t.Fatalf("range read promoted object into cache: used = %d", used)
	}
}

func TestPrefixIsolatesNamespace(t *testing.T) {
	ctx := context.Background()
	base := NewMemory()
	v1 := NewPrefix(base, "versions/v1")
	v2 := NewPrefix(base, "versions/v2")
	if err := v1.Put(ctx, "meta.json", []byte("one")); err != nil {
		t.Fatal(err)
	}
	if err := v2.Put(ctx, "meta.json", []byte("two")); err != nil {
		t.Fatal(err)
	}
	got, err := v1.Get(ctx, "meta.json")
	if err != nil || string(got) != "one" {
		t.Fatalf("v1 read = %q, %v", got, err)
	}
	keys, err := base.List(ctx, "versions/")
	if err != nil || len(keys) != 2 {
		t.Fatalf("base list = %v, %v", keys, err)
	}
	rel, err := v1.List(ctx, "")
	if err != nil || len(rel) != 1 || rel[0] != "meta.json" {
		t.Fatalf("prefix-relative list = %v, %v", rel, err)
	}
}

func TestFlakyInjectsFailures(t *testing.T) {
	ctx := context.Background()
	boom := errors.New("boom")
	inner := NewMemory()
	if err := inner.Put(ctx, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	f := NewFlaky(inner, 3, boom)
	var failures int
	for i := 0; i < 9; i++ {
		if _, err := f.Get(ctx, "k"); errors.Is(err, boom) {
			failures++
		}
	}
	if failures != 3 {
		t.Fatalf("failures = %d, want 3 (every 3rd op)", failures)
	}
}

func TestSimChargesTraffic(t *testing.T) {
	ctx := context.Background()
	fast := simnet.Profile{Name: "f", Lanes: 4, TimeScale: 1e9, ReadBytesPerSec: 1e12, WriteBytesPerSec: 1e12}
	s := NewSimObjectStore(fast)
	if err := s.Put(ctx, "k", make([]byte, 1234)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(ctx, "k"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.GetRange(ctx, "k", 0, 100); err != nil {
		t.Fatal(err)
	}
	_, in, out, _ := s.Network().Stats()
	if in != 1234 {
		t.Fatalf("bytesIn = %d, want 1234", in)
	}
	if out != 1234+100 {
		t.Fatalf("bytesOut = %d, want 1334", out)
	}
}

func TestCountingCounts(t *testing.T) {
	ctx := context.Background()
	c := NewCounting(NewMemory())
	if err := c.Put(ctx, "k", []byte("abcd")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get(ctx, "k"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.GetRange(ctx, "k", 0, 2); err != nil {
		t.Fatal(err)
	}
	snap := c.Snapshot()
	if snap.Puts != 1 || snap.Gets != 1 || snap.RangeGets != 1 {
		t.Fatalf("counts = %d/%d/%d, want 1/1/1", snap.Puts, snap.Gets, snap.RangeGets)
	}
	if snap.BytesWritten != 4 || snap.BytesRead != 6 {
		t.Fatalf("bytes = w%d r%d, want w4 r6", snap.BytesWritten, snap.BytesRead)
	}
	if c.Requests() != 2 {
		t.Fatalf("Requests = %d, want 2", c.Requests())
	}
}

// Property: for any object and any (offset, length), GetRange agrees with
// slicing the full object under HTTP Range semantics.
func TestRangeSemanticsProperty(t *testing.T) {
	ctx := context.Background()
	m := NewMemory()
	f := func(data []byte, offset, length int16) bool {
		key := fmt.Sprintf("obj-%d", len(data))
		if err := m.Put(ctx, key, data); err != nil {
			return false
		}
		off, ln := int64(offset), int64(length)
		got, err := m.GetRange(ctx, key, off, ln)
		if off < 0 || off > int64(len(data)) {
			return err != nil
		}
		if err != nil {
			return false
		}
		lo := off
		hi := int64(len(data))
		if ln >= 0 && lo+ln < hi {
			hi = lo + ln
		}
		return bytes.Equal(got, data[lo:hi])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestClampRange(t *testing.T) {
	cases := []struct {
		n, off, length int64
		lo, hi         int64
		ok             bool
	}{
		{10, 0, -1, 0, 10, true},
		{10, 0, 5, 0, 5, true},
		{10, 5, 5, 5, 10, true},
		{10, 5, 100, 5, 10, true},
		{10, 10, 1, 10, 10, true},
		{10, 11, 1, 0, 0, false},
		{10, -1, 1, 0, 0, false},
		{0, 0, 0, 0, 0, true},
	}
	for _, c := range cases {
		lo, hi, ok := clampRange(c.n, c.off, c.length)
		if lo != c.lo || hi != c.hi || ok != c.ok {
			t.Errorf("clampRange(%d,%d,%d) = %d,%d,%v; want %d,%d,%v",
				c.n, c.off, c.length, lo, hi, ok, c.lo, c.hi, c.ok)
		}
	}
}
