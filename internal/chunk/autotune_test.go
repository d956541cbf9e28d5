package chunk

import (
	"bytes"
	"testing"
)

// fill appends samples of the given size until the builder wants a flush,
// then flushes, returning how many samples the sealed chunk held.
func fillAndSeal(t *testing.T, b *Builder, sampleBytes int) int {
	t.Helper()
	data := bytes.Repeat([]byte{0xAB}, sampleBytes)
	for b.Len() == 0 || !b.ShouldFlushBefore(sampleBytes) {
		if err := b.Append(Sample{Data: data}); err != nil {
			t.Fatal(err)
		}
	}
	_, n, err := b.Flush()
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestAutotuneDisabledByDefault(t *testing.T) {
	bounds := Bounds{Min: 10, Target: 100, Max: 200}
	b := NewBuilder(bounds)
	for i := 0; i < 5; i++ {
		fillAndSeal(t, b, 4)
	}
	if got := b.EffectiveBounds(); got != bounds {
		t.Fatalf("static policy drifted without SetAutotune: %+v", got)
	}
}

func TestAutotuneDoublingSchedule(t *testing.T) {
	b := NewBuilder(Bounds{Min: 10, Target: 100, Max: 200})
	b.SetAutotune(800)

	// Small samples keep the mean floor (16x mean) below the base target, so
	// the pure doubling clock is observable: 100 -> 200 -> 400 -> 800 (cap).
	wantTargets := []int{100, 200, 400, 800, 800}
	for seal, want := range wantTargets {
		if got := b.EffectiveBounds().Target; got != want {
			t.Fatalf("after %d sealed chunks: effective target %d, want %d", seal, got, want)
		}
		fillAndSeal(t, b, 4)
	}
	// The hard ceiling keeps headroom: at least twice the grown target.
	if got := b.EffectiveBounds().Max; got != 1600 {
		t.Fatalf("effective max %d, want 2x capped target = 1600", got)
	}
	// Min is never touched by the autotuner.
	if got := b.EffectiveBounds().Min; got != 10 {
		t.Fatalf("effective min %d, want 10", got)
	}
}

func TestAutotuneMeanSampleFloor(t *testing.T) {
	b := NewBuilder(Bounds{Min: 10, Target: 100, Max: 200})
	b.SetAutotune(1 << 20)
	// One 50-byte sample: mean floor = 16*50 = 800, far past the base
	// target, before any chunk has sealed — large samples jump straight to
	// large chunks instead of waiting out the doubling schedule.
	if err := b.Append(Sample{Data: bytes.Repeat([]byte{1}, 50)}); err != nil {
		t.Fatal(err)
	}
	if got := b.EffectiveBounds().Target; got != 800 {
		t.Fatalf("effective target %d, want mean-sample floor 800", got)
	}
	// The floor is still capped.
	b2 := NewBuilder(Bounds{Min: 10, Target: 100, Max: 200})
	b2.SetAutotune(600)
	if err := b2.Append(Sample{Data: bytes.Repeat([]byte{1}, 50)}); err != nil {
		t.Fatal(err)
	}
	if got := b2.EffectiveBounds().Target; got != 600 {
		t.Fatalf("effective target %d, want autotune cap 600", got)
	}
}

func TestAutotuneCapNeverBelowBaseTarget(t *testing.T) {
	b := NewBuilder(Bounds{Min: 10, Target: 100, Max: 200})
	b.SetAutotune(50) // below base target: clamped up, not down
	if got := b.EffectiveBounds().Target; got != 100 {
		t.Fatalf("effective target %d, want base target 100", got)
	}
	b.SetAutotune(0) // disables, restoring the static policy
	fillAndSeal(t, b, 4)
	if got := b.EffectiveBounds(); got != b.Bounds() {
		t.Fatalf("disabled autotune still lifts bounds: %+v", got)
	}
}

// TestAutotuneScheduleIsAppendDriven is the determinism core of the ingest
// autotuner: the effective-target trajectory is a pure function of the
// append/flush sequence. Two builders fed the same sequence report identical
// targets at every step — there is no timing or concurrency input — which is
// what makes autotuned ingest byte-identical at any flush-worker count (the
// core-level golden test covers the full pipeline).
func TestAutotuneScheduleIsAppendDriven(t *testing.T) {
	run := func() []int {
		b := NewBuilder(Bounds{Min: 16, Target: 64, Max: 256})
		b.SetAutotune(4096)
		var targets []int
		sizes := []int{3, 7, 12, 5, 9, 31, 2, 18}
		for i := 0; i < 40; i++ {
			sz := sizes[i%len(sizes)]
			if b.ShouldFlushBefore(sz) {
				if _, _, err := b.Flush(); err != nil {
					t.Fatal(err)
				}
			}
			if err := b.Append(Sample{Data: bytes.Repeat([]byte{byte(i)}, sz)}); err != nil {
				t.Fatal(err)
			}
			targets = append(targets, b.EffectiveBounds().Target)
		}
		return targets
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("step %d: target %d vs %d — schedule not append-driven", i, a[i], b[i])
		}
	}
	grew := false
	for i := 1; i < len(a); i++ {
		if a[i] > a[0] {
			grew = true
		}
	}
	if !grew {
		t.Fatal("schedule never grew the target over 40 appends")
	}
}

// TestAutotuneShrinkOnRegret: a sealed chunk that overshoots the effective
// target by more than 3/2 — a mixed-size stream landing one huge closing
// sample — walks the doubling clock back one level instead of forward, so
// the next chunks return to the band rather than ratcheting past it.
func TestAutotuneShrinkOnRegret(t *testing.T) {
	b := NewBuilder(Bounds{Min: 10, Target: 100, Max: 200})
	b.SetAutotune(1600)

	// Grow with small in-band seals: 100 -> 200 -> 400 -> 800.
	for i := 0; i < 3; i++ {
		fillAndSeal(t, b, 4)
	}
	if got := b.EffectiveBounds().Target; got != 800 {
		t.Fatalf("effective target %d after growth, want 800", got)
	}

	// Fill near the target with small samples, then land one huge closing
	// sample: sealed payload 1500 > 1.5 x 800.
	small := bytes.Repeat([]byte{1}, 4)
	for b.PayloadBytes() < 700 {
		if err := b.Append(Sample{Data: small}); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Append(Sample{Data: bytes.Repeat([]byte{2}, 800)}); err != nil {
		t.Fatal(err)
	}
	if _, n, err := b.Flush(); err != nil || n == 0 {
		t.Fatalf("flush: n=%d err=%v", n, err)
	}
	if got := b.EffectiveBounds().Target; got != 400 {
		t.Fatalf("effective target %d after oversized seal, want shrink to 400", got)
	}

	// An in-band seal grows it right back — regret is one step, not a reset.
	fillAndSeal(t, b, 4)
	if got := b.EffectiveBounds().Target; got != 800 {
		t.Fatalf("effective target %d after recovery seal, want 800", got)
	}
}

// TestAutotuneShrinkNeverBelowBase: regret stops at level zero — the base
// target is the floor, no matter how many oversized chunks seal.
func TestAutotuneShrinkNeverBelowBase(t *testing.T) {
	b := NewBuilder(Bounds{Min: 10, Target: 100, Max: 400})
	b.SetAutotune(800)
	small := bytes.Repeat([]byte{3}, 2)
	for i := 0; i < 4; i++ {
		// Every seal overshoots 1.5x the target: mostly tiny samples (the
		// mean floor stays below the base target) plus one fat closer.
		for b.PayloadBytes() < 99 {
			if err := b.Append(Sample{Data: small}); err != nil {
				t.Fatal(err)
			}
		}
		if err := b.Append(Sample{Data: bytes.Repeat([]byte{4}, 60)}); err != nil {
			t.Fatal(err)
		}
		if _, _, err := b.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if got := b.EffectiveBounds().Target; got != 100 {
		t.Fatalf("effective target %d after repeated regret, want base 100", got)
	}
}

// TestAutotuneStateRoundTrip: a builder reconstructed from AutotuneState
// mid-stream tracks the uninterrupted builder's effective target at every
// subsequent step — the schedule survives a writer reopen.
func TestAutotuneStateRoundTrip(t *testing.T) {
	bounds := Bounds{Min: 16, Target: 64, Max: 256}
	const cap = 4096
	sizes := []int{3, 7, 12, 90, 5, 9, 31, 2, 120, 18}
	step := func(b *Builder, i int) {
		sz := sizes[i%len(sizes)]
		if b.ShouldFlushBefore(sz) {
			if _, _, err := b.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		if err := b.Append(Sample{Data: bytes.Repeat([]byte{byte(i)}, sz)}); err != nil {
			t.Fatal(err)
		}
	}

	full := NewBuilder(bounds)
	full.SetAutotune(cap)
	half := NewBuilder(bounds)
	half.SetAutotune(cap)
	const split, total = 40, 80
	for i := 0; i < split; i++ {
		step(full, i)
		step(half, i)
	}
	// "Reopen": a fresh builder restored from the persisted state. The write
	// buffer does not survive a reopen (it is flushed first), so flush both.
	if _, _, err := half.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := full.Flush(); err != nil {
		t.Fatal(err)
	}
	resumed := NewBuilder(bounds)
	resumed.SetAutotune(cap)
	resumed.RestoreAutotune(half.AutotuneState())
	for i := split; i < total; i++ {
		step(full, i)
		step(resumed, i)
		if g, w := resumed.EffectiveBounds(), full.EffectiveBounds(); g != w {
			t.Fatalf("step %d: resumed bounds %+v, uninterrupted %+v", i, g, w)
		}
	}
	if g, w := resumed.AutotuneState(), full.AutotuneState(); g != w {
		t.Fatalf("final state diverged: resumed %+v, uninterrupted %+v", g, w)
	}
}

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
