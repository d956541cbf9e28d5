package storage

import (
	"bytes"
	"context"
	"errors"
	"testing"
)

// errBadRange is what the test checks return for bytes that are not the
// range's.
var errBadRange = errors.New("range bytes differ from the stored ones")

// checkedRange is a checked request for bytes [off, off+n) of want, the
// object stored under key: its check compares CRC32Cs.
func checkedRange(key string, want []byte, off, n int64) RangeReq {
	crc := Checksum(want[off : off+n])
	return RangeReq{Key: key, Offset: off, Length: n, Check: func(b []byte) (bool, error) {
		if Checksum(b) != crc {
			return true, errBadRange
		}
		return true, nil
	}}
}

// rangedObject stores a 4 KiB object under key and returns its bytes.
func rangedObject(t *testing.T, p Provider, key string) []byte {
	t.Helper()
	data := make([]byte, 4<<10)
	for i := range data {
		data[i] = byte(i * 7)
	}
	if err := p.Put(context.Background(), key, data); err != nil {
		t.Fatal(err)
	}
	return data
}

// TestCheckedRangeHealsWithOneExtraRequest: a bit flip or a truncation on
// one range of a batch fails that range's check at Verify, which re-fetches
// that range alone — one extra request — and counts every range verified.
func TestCheckedRangeHealsWithOneExtraRequest(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  FaultConfig
	}{
		{"bit flip", FaultConfig{Seed: 3, CorruptRate: 1, MaxFaults: 1}},
		{"truncation", FaultConfig{Seed: 3, TruncateRate: 1, MaxFaults: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx := context.Background()
			mem := NewMemory()
			data := rangedObject(t, mem, "k")
			counting := NewCounting(NewFaulty(mem, tc.cfg))
			v := NewVerify(counting, VerifyOptions{})
			reqs := []RangeReq{checkedRange("k", data, 0, 100), checkedRange("k", data, 1000, 900), checkedRange("k", data, 3000, 1096)}
			out, err := v.GetRanges(ctx, reqs)
			if err != nil {
				t.Fatal(err)
			}
			for i, r := range reqs {
				if !bytes.Equal(out[i], data[r.Offset:r.Offset+r.Length]) {
					t.Fatalf("range %d not healed", i)
				}
			}
			if s := counting.Snapshot(); s.BatchGets != 1 || s.RangeGets != 1 || s.Gets != 0 {
				t.Fatalf("origin saw %+v, want the batch and one range re-fetch", s)
			}
			if s := v.Stats(); s.Verified != 3 || s.Detected != 1 || s.Repaired != 1 || s.Unverified != 0 {
				t.Fatalf("verify stats %+v, want 3 verified, 1 detected and repaired", s)
			}
		})
	}
}

// TestCheckedRangeQuarantinesItsKey: a range whose stored bytes keep failing
// their check exhausts its heal attempts; after QuarantineAfter such reads
// the key is quarantined and fails fast without touching the origin, as a
// whole object's key is.
func TestCheckedRangeQuarantinesItsKey(t *testing.T) {
	ctx := context.Background()
	mem := NewMemory()
	data := rangedObject(t, mem, "k")
	wrong := bytes.Clone(data)
	wrong[10] ^= 1
	counting := NewCounting(mem)
	v := NewVerify(counting, VerifyOptions{HealAttempts: 1, QuarantineAfter: 2})
	reqs := []RangeReq{checkedRange("k", wrong, 0, 100)}
	for i := 0; i < 2; i++ {
		_, err := v.GetRanges(ctx, reqs)
		if !IsCorrupted(err) || !IsRetryable(err) {
			t.Fatalf("read %d: %v, want a transient ErrCorrupted", i, err)
		}
	}
	if !v.Quarantined("k") || v.Stats().Quarantined != 1 {
		t.Fatalf("key not quarantined after two exhausted reads: %+v", v.Stats())
	}
	before := counting.Requests()
	if _, err := v.GetRanges(ctx, reqs); !IsCorrupted(err) || IsRetryable(err) {
		t.Fatalf("quarantined read: %v, want a permanent ErrCorrupted", err)
	}
	if counting.Requests() != before {
		t.Fatal("a quarantined key reached the origin")
	}
}

// TestLRURangeEntriesLeaveWithTheirObject: ranges read through the LRU are
// entries of their own, served without the origin on a second read, and a
// Put, Delete or Evict of their object drops them with it.
func TestLRURangeEntriesLeaveWithTheirObject(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		drop func(l *LRU) error
	}{
		{"Put", func(l *LRU) error { return l.Put(ctx, "other", []byte("x")) }},
		{"Put", func(l *LRU) error { return l.Put(ctx, "k", []byte("new")) }},
		{"Delete", func(l *LRU) error { return l.Delete(ctx, "k") }},
		{"Evict", func(l *LRU) error { l.Evict("k"); return nil }},
	} {
		mem := NewMemory()
		data := rangedObject(t, mem, "k")
		counting := NewCounting(mem)
		l := NewShardedLRU(counting, 1<<20, 1)
		reqs := []RangeReq{checkedRange("k", data, 0, 100), checkedRange("k", data, 2048, 1000)}
		for i := 0; i < 2; i++ {
			out, err := l.GetRanges(ctx, reqs)
			if err != nil || !bytes.Equal(out[1], data[2048:3048]) {
				t.Fatalf("%s: read %d = %v", tc.name, i, err)
			}
		}
		if s := counting.Snapshot(); s.BatchGets != 1 || s.BatchRanges != 2 {
			t.Fatalf("%s: two reads of two ranges cost %+v, want one batch", tc.name, s)
		}
		if used := l.Stats().UsedBytes; used != 1100 {
			t.Fatalf("%s: range entries hold %d bytes, want their 1100", tc.name, used)
		}
		if err := tc.drop(l); err != nil {
			t.Fatal(err)
		}
		used := l.Stats().UsedBytes
		switch k, _ := mem.Get(ctx, "k"); {
		case len(k) == 3: // the Put of "k": only the new object is resident
			if used != 3 {
				t.Fatalf("Put: %d bytes resident, want the new object's 3", used)
			}
		case tc.name == "Put": // a Put of another key keeps them
			if used != 1101 {
				t.Fatalf("Put of another key: %d bytes resident, want 1101", used)
			}
		default:
			if used != 0 {
				t.Fatalf("%s: %d bytes still resident", tc.name, used)
			}
		}
	}
}

// TestLRUServesARangeFromItsResidentObject: with the object cached whole,
// a range of it is a sub-slice of the object and costs no request.
func TestLRUServesARangeFromItsResidentObject(t *testing.T) {
	ctx := context.Background()
	mem := NewMemory()
	data := rangedObject(t, mem, "k")
	counting := NewCounting(mem)
	l := NewShardedLRU(counting, 1<<20, 1)
	if _, err := l.Get(ctx, "k"); err != nil {
		t.Fatal(err)
	}
	out, err := l.GetRanges(ctx, []RangeReq{checkedRange("k", data, 100, 10)})
	if err != nil || !bytes.Equal(out[0], data[100:110]) {
		t.Fatalf("range of a resident object = %v", err)
	}
	if s := counting.Snapshot(); s.Gets != 1 || s.BatchGets != 0 {
		t.Fatalf("origin saw %+v, want only the whole-object Get", s)
	}
}

// TestCoalesceLeavesCheckedRangesUnmerged: touching ranges merge, checked
// ones never do, they follow their key's other requests in input order,
// and a batch cut never separates a checked range from its key's request
// before it.
func TestCoalesceLeavesCheckedRangesUnmerged(t *testing.T) {
	data := make([]byte, 4096)
	check := func(off, n int64) RangeReq { return checkedRange("k", data, off, n) }
	reqs := []RangeReq{check(2000, 100), {Key: "k", Offset: 0, Length: 10}, check(0, 100), {Key: "k", Offset: 10, Length: 10}, check(100, 100)}
	plans := Coalesce(reqs, PlanOptions{GapTolerance: 1 << 20})
	if len(plans) != 1 {
		t.Fatalf("%d plans, want 1", len(plans))
	}
	var got [][3]int64
	for i, w := range plans[0].Wire {
		got = append(got, [3]int64{w.Offset, w.Length, int64(len(plans[0].Parts[i]))})
	}
	want := [][3]int64{{0, 20, 2}, {2000, 100, 1}, {0, 100, 1}, {100, 100, 1}}
	if len(got) != len(want) {
		t.Fatalf("wire %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("wire %v, want %v", got, want)
		}
	}
	// A 150-byte cap would cut after every range; a key's checked ranges
	// stay in the batch of its first request.
	plans = Coalesce([]RangeReq{{Key: "a", Length: 100}, check(0, 100), check(100, 100), check(200, 100)}, PlanOptions{MaxRequestBytes: 150})
	if len(plans) != 2 || len(plans[1].Wire) != 3 {
		t.Fatalf("cut into %d plans, want the checked ranges of k together in the second", len(plans))
	}
}

// TestRangedPrefetchReachesTheCacheThroughUnwrap: PrefetchRanges walks
// through a wrapper that exposes only Unwrap (unwrapOnly) to the LRU, whose
// claims owe Headroom the ranges' exact lengths until read; a reader of the
// LRU's GetRanges, which a wrapper like lakebench's tap forwards, then joins
// the prefetch's one batch.
func TestRangedPrefetchReachesTheCacheThroughUnwrap(t *testing.T) {
	ctx := context.Background()
	mem := NewMemory()
	data := rangedObject(t, mem, "k")
	counting := NewCounting(mem)
	l := NewShardedLRU(counting, 1<<20, 1)
	top := unwrapOnly{l}
	reqs := []RangeReq{checkedRange("k", data, 0, 100), checkedRange("k", data, 1024, 300)}
	if n := PrefetchRanges(ctx, top, reqs, PlanOptions{}); n != 2 {
		t.Fatalf("PrefetchRanges claimed %d, want 2", n)
	}
	if room := Headroom(top); room != 1<<20-400 {
		t.Fatalf("Headroom = %d after claiming 400 bytes of ranges, want %d", room, 1<<20-400)
	}
	out, err := l.GetRanges(ctx, reqs)
	if err != nil || !bytes.Equal(out[1], data[1024:1324]) {
		t.Fatalf("read after prefetch: %v", err)
	}
	if s := counting.Snapshot(); s.BatchGets != 1 || s.BatchRanges != 2 || s.RangeGets != 0 {
		t.Fatalf("origin saw %+v, want the prefetch's one batch", s)
	}
	if room := Headroom(top); room != 1<<20 {
		t.Fatalf("Headroom = %d once the ranges are read, want all of it", room)
	}
}
