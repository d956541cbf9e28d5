package chunk

import (
	"bytes"
	"reflect"
	"testing"
)

func TestArenaAllocDoesNotAlias(t *testing.T) {
	a := NewArena()
	bufs := make([][]byte, 0, 64)
	for i := 0; i < 64; i++ {
		buf := a.Alloc(100)
		for j := range buf {
			buf[j] = byte(i)
		}
		bufs = append(bufs, buf)
	}
	for i, buf := range bufs {
		if len(buf) != 100 || cap(buf) != 100 {
			t.Fatalf("alloc %d: len %d cap %d, want 100/100", i, len(buf), cap(buf))
		}
		for j, v := range buf {
			if v != byte(i) {
				t.Fatalf("alloc %d byte %d overwritten by a later allocation", i, j)
			}
		}
	}
}

func TestArenaCopyAndOversize(t *testing.T) {
	a := NewArena()
	src := []byte("payload")
	cp := a.Copy(src)
	if !bytes.Equal(cp, src) {
		t.Fatalf("Copy mismatch: %q", cp)
	}
	src[0] = 'X'
	if cp[0] == 'X' {
		t.Fatal("Copy aliases its source")
	}
	if a.Copy(nil) != nil {
		t.Fatal("empty copy should return nil")
	}
	// Oversize requests bypass the slabs but still work.
	big := a.Alloc(arenaSlabBytes + 1)
	if len(big) != arenaSlabBytes+1 {
		t.Fatalf("oversize alloc len %d", len(big))
	}
}

func TestArenaResetRecyclesSlabs(t *testing.T) {
	a := NewArena()
	first := a.Alloc(64)
	first[0] = 1
	a.Reset()
	second := a.Alloc(64)
	// After Reset the bump pointer rewinds onto the same retained slab, so
	// the next allocation reuses the same backing bytes.
	if &first[0] != &second[0] {
		t.Fatal("Reset did not rewind onto the retained slab")
	}
}

// TestArenaReleaseEmptiesTheArena: Release hands every slab back, the
// current one included, and the arena starts over on its next Alloc.
func TestArenaReleaseEmptiesTheArena(t *testing.T) {
	a := NewArena()
	for i := 0; i < 5; i++ {
		a.Alloc(100 << 10)
	}
	a.Release()
	if a.cur != nil || len(a.full) != 0 {
		t.Fatalf("arena holds slabs after Release: cur=%v full=%d", a.cur != nil, len(a.full))
	}
	if buf := a.Alloc(64); len(buf) != 64 || a.off != 64 {
		t.Fatalf("first allocation after Release: len %d at offset %d, want 64 at the start of a slab", len(buf), a.off-len(buf))
	}
}

// TestArenaForgetLeavesBuffersToTheirHolders: after Forget the arena holds
// no filled slab (so nothing pins them, and a later Reset cannot recycle
// them under a consumer), every buffer handed out before is intact, and
// allocation continues without aliasing any of them.
func TestArenaForgetLeavesBuffersToTheirHolders(t *testing.T) {
	a := NewArena()
	const size = 100 << 10 // two per slab: every other Alloc fills one
	var bufs [][]byte
	fill := func(n int) {
		for i := 0; i < n; i++ {
			buf := a.Alloc(size)
			for j := range buf {
				buf[j] = byte(len(bufs))
			}
			bufs = append(bufs, buf)
		}
	}
	fill(7)
	if len(a.full) != 3 {
		t.Fatalf("arena tracks %d filled slabs after 7 half-slab allocations, want 3", len(a.full))
	}
	a.Forget()
	if len(a.full) != 0 {
		t.Fatalf("arena still tracks %d filled slabs after Forget", len(a.full))
	}
	for _, s := range a.full[:cap(a.full)] {
		if s != nil {
			t.Fatal("Forget left a slab pointer behind in the backing array, which would keep pinning it")
		}
	}
	fill(6)
	for i, buf := range bufs {
		for j, v := range buf {
			if v != byte(i) {
				t.Fatalf("buffer %d byte %d overwritten (by buffer %d) across Forget", i, j, v)
			}
		}
	}
}

// TestArenaSteadyStateAllocsFree is the allocs/op contract the arena exists
// for: sample-sized allocations from a reset arena never touch the heap.
func TestArenaSteadyStateAllocsFree(t *testing.T) {
	a := NewArena()
	a.Alloc(768) // acquire the first slab outside the measured loop
	allocs := testing.AllocsPerRun(1000, func() {
		a.Reset()
		buf := a.Alloc(768)
		buf[0] = 1
	})
	if allocs > 0 {
		t.Fatalf("steady-state arena allocation costs %.1f heap allocs/op, want 0", allocs)
	}
}

// BenchmarkArenaAlloc measures the arena's bump-allocation fast path.
func BenchmarkArenaAlloc(b *testing.B) {
	a := NewArena()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%1000 == 0 {
			a.Reset()
		}
		buf := a.Alloc(768)
		buf[0] = byte(i)
	}
}

// TestDecodeDirectoryAllocsIndependentOfSamples is the directory's allocs/op
// contract: decoding one is a fixed handful of allocations however many
// samples it lists, since every shape is cut from one backing slice — and
// each cut is capacity-clipped, so growing one shape never writes into the
// next.
func TestDecodeDirectoryAllocsIndependentOfSamples(t *testing.T) {
	dirOf := func(n int) []byte {
		samples := make([]Sample, n)
		for i := range samples {
			samples[i] = Sample{Shape: []int{i % 3, 2, 1}[:i%4%3], Data: []byte{byte(i)}}
		}
		raw, err := Encode(samples)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	for _, n := range []int{4, 4000} {
		raw := dirOf(n)
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := DecodeDirectory(raw); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 4 {
			t.Fatalf("DecodeDirectory of %d samples costs %.0f allocs/op, want <= 4", n, allocs)
		}
	}
	d, err := DecodeDirectory(dirOf(8))
	if err != nil {
		t.Fatal(err)
	}
	next := append([]int(nil), d.Shapes[2]...)
	_ = append(d.Shapes[1], 99)
	if !reflect.DeepEqual(d.Shapes[2], next) {
		t.Fatalf("appending to shape 1 overwrote shape 2: %v, want %v", d.Shapes[2], next)
	}
}

func TestDecodeAppendReusesDst(t *testing.T) {
	samples := []Sample{
		{Data: []byte("alpha")},
		{Data: []byte("beta"), Shape: []int{2, 2}},
		{Data: []byte("gamma")},
	}
	raw, err := Encode(samples)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]Sample, 0, 8)
	base := &dst[:1][0]
	out, err := DecodeAppend(raw, dst)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(samples) {
		t.Fatalf("decoded %d samples, want %d", len(out), len(samples))
	}
	if &out[0] != base {
		t.Fatal("DecodeAppend reallocated a dst that had capacity")
	}
	for i := range samples {
		if !bytes.Equal(out[i].Data, samples[i].Data) {
			t.Fatalf("sample %d payload mismatch", i)
		}
	}
	// A second decode through the same dst truncates and reuses it: same
	// length, same backing array, zero slice growth.
	out2, err := DecodeAppend(raw, out)
	if err != nil {
		t.Fatal(err)
	}
	if len(out2) != len(samples) {
		t.Fatalf("second DecodeAppend: %d samples, want %d", len(out2), len(samples))
	}
	if &out2[0] != base {
		t.Fatal("second DecodeAppend abandoned the reusable backing array")
	}
}
