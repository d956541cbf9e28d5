package storage

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/simnet"
)

// --- Coalesce units ---------------------------------------------------------

func TestCoalesceGapTolerance(t *testing.T) {
	reqs := []RangeReq{
		{Key: "a", Offset: 0, Length: 100},
		{Key: "a", Offset: 150, Length: 100}, // gap of 50 to the first
		{Key: "a", Offset: 500, Length: 100}, // gap of 250 to the merged pair
	}

	// Gap 64 bridges the 50-byte hole but not the 250-byte one.
	plans := Coalesce(reqs, PlanOptions{GapTolerance: 64})
	if got := Requests(plans); got != 2 {
		t.Fatalf("gap 64: want 2 wire requests, got %d: %+v", got, plans)
	}
	w := plans[0].Wire[0]
	if w.Offset != 0 || w.Length != 250 {
		t.Fatalf("merged request should over-read [0,250), got offset %d length %d", w.Offset, w.Length)
	}
	// The second original range maps 150 bytes into the merged payload.
	if pt := plans[0].Parts[0][1]; pt.Index != 1 || pt.Offset != 150 || pt.Length != 100 {
		t.Fatalf("part mapping wrong: %+v", pt)
	}

	// Gap 0 merges only touching ranges: all three stay separate.
	if got := Requests(Coalesce(reqs, PlanOptions{GapTolerance: 0})); got != 3 {
		t.Fatalf("gap 0: want 3 wire requests, got %d", got)
	}

	// A big enough tolerance collapses everything into one request.
	plans = Coalesce(reqs, PlanOptions{GapTolerance: 4096})
	if got := Requests(plans); got != 1 {
		t.Fatalf("gap 4096: want 1 wire request, got %d", got)
	}
	if w := plans[0].Wire[0]; w.Offset != 0 || w.Length != 600 {
		t.Fatalf("fully merged request should cover [0,600), got %+v", w)
	}
}

func TestCoalesceNegativeGapDisablesMerging(t *testing.T) {
	reqs := []RangeReq{
		{Key: "a", Offset: 0, Length: 10},
		{Key: "a", Offset: 10, Length: 10}, // touching: would merge at gap 0
		{Key: "a", Offset: 5, Length: 10},  // overlapping: would merge too
	}
	plans := Coalesce(reqs, PlanOptions{GapTolerance: -1})
	if got := Requests(plans); got != 3 {
		t.Fatalf("negative gap tolerance must disable merging: want 3 wire requests, got %d", got)
	}
	// Input order is preserved when merging is off.
	var order []int64
	for _, p := range plans {
		for _, w := range p.Wire {
			order = append(order, w.Offset)
		}
	}
	if !reflect.DeepEqual(order, []int64{0, 10, 5}) {
		t.Fatalf("unmerged requests out of order: %v", order)
	}
}

func TestCoalesceWholeObjectSubsumes(t *testing.T) {
	reqs := []RangeReq{
		{Key: "a", Offset: 100, Length: 50},
		{Key: "a", Offset: 0, Length: -1}, // whole object
		{Key: "a", Offset: 9000, Length: 50},
	}
	plans := Coalesce(reqs, PlanOptions{GapTolerance: 0})
	if got := Requests(plans); got != 1 {
		t.Fatalf("whole-object request must subsume sibling ranges: want 1 wire request, got %d", got)
	}
	w := plans[0].Wire[0]
	if !w.whole() {
		t.Fatalf("surviving wire request should be whole-object, got %+v", w)
	}
	parts := plans[0].Parts[0]
	if len(parts) != 3 {
		t.Fatalf("want 3 parts on the whole-object request, got %+v", parts)
	}
	for _, pt := range parts {
		switch pt.Index {
		case 0:
			if pt.Offset != 100 || pt.Length != 50 {
				t.Fatalf("part 0 mapping wrong: %+v", pt)
			}
		case 1:
			if pt.Offset != 0 || pt.Length != -1 {
				t.Fatalf("part 1 mapping wrong: %+v", pt)
			}
		case 2:
			if pt.Offset != 9000 || pt.Length != 50 {
				t.Fatalf("part 2 mapping wrong: %+v", pt)
			}
		}
	}
}

func TestCoalesceMaxRequestBytesPacking(t *testing.T) {
	// Six distinct objects at 10 bytes each, cap 25: greedy in-order packing
	// yields ceil(60/25)=3 round trips of at most 2 requests... actually
	// 2+2+2: batches close when the next range would overflow.
	var reqs []RangeReq
	for i := 0; i < 6; i++ {
		reqs = append(reqs, RangeReq{Key: fmt.Sprintf("k%d", i), Offset: 0, Length: 10})
	}
	plans := Coalesce(reqs, PlanOptions{MaxRequestBytes: 25})
	if len(plans) != 3 {
		t.Fatalf("cap 25 over 6x10B: want 3 plans, got %d: %+v", len(plans), plans)
	}
	for i, p := range plans {
		if len(p.Wire) != 2 {
			t.Fatalf("plan %d: want 2 wire requests, got %d", i, len(p.Wire))
		}
	}

	// Whole-object requests are estimated at SizeHint for packing.
	whole := []RangeReq{
		{Key: "a", Offset: 0, Length: -1},
		{Key: "b", Offset: 0, Length: -1},
		{Key: "c", Offset: 0, Length: -1},
	}
	plans = Coalesce(whole, PlanOptions{MaxRequestBytes: 100, SizeHint: 60})
	if len(plans) != 3 {
		t.Fatalf("size-hint 60 under cap 100: want 3 single-request plans, got %d", len(plans))
	}
	plans = Coalesce(whole, PlanOptions{MaxRequestBytes: 150, SizeHint: 60})
	if len(plans) != 2 {
		t.Fatalf("size-hint 60 under cap 150: want 2 plans (2+1), got %d", len(plans))
	}
	plans = Coalesce(whole, PlanOptions{MaxRequestBytes: 200, SizeHint: 60})
	if len(plans) != 1 {
		t.Fatalf("size-hint 60 under cap 200: all 3 fit one plan, got %d", len(plans))
	}

	// A single oversized range still travels (one request per plan) instead
	// of being dropped.
	big := []RangeReq{{Key: "x", Offset: 0, Length: 1 << 30}}
	plans = Coalesce(big, PlanOptions{MaxRequestBytes: 1024})
	if len(plans) != 1 || len(plans[0].Wire) != 1 {
		t.Fatalf("oversized single range must form its own plan, got %+v", plans)
	}
}

// --- ExecutePlans ------------------------------------------------------------

func TestExecutePlansScatter(t *testing.T) {
	ctx := context.Background()
	mem := NewMemory()
	payload := make([]byte, 1000)
	for i := range payload {
		payload[i] = byte(i % 251)
	}
	if err := mem.Put(ctx, "obj", payload); err != nil {
		t.Fatal(err)
	}
	reqs := []RangeReq{
		{Key: "obj", Offset: 0, Length: 100},
		{Key: "obj", Offset: 120, Length: 80}, // merges with gap tolerance
		{Key: "obj", Offset: 900, Length: -1}, // tail read, separate
	}
	plans := Coalesce(reqs, PlanOptions{GapTolerance: 64})
	if got := Requests(plans); got != 2 {
		t.Fatalf("want 2 wire requests, got %d", got)
	}
	out, err := ExecutePlans(ctx, mem, len(reqs), plans)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]byte{payload[0:100], payload[120:200], payload[900:]}
	for i := range want {
		if !bytes.Equal(out[i], want[i]) {
			t.Fatalf("request %d: scattered payload mismatch (%d vs %d bytes)", i, len(out[i]), len(want[i]))
		}
	}
}

// failKeyProvider fails any batch that contains the poisoned key, serving
// requests before it per the partial-results contract.
type failKeyProvider struct {
	*Memory
	failKey string
}

func (p *failKeyProvider) GetRanges(ctx context.Context, reqs []RangeReq) ([][]byte, error) {
	out := make([][]byte, len(reqs))
	for i, r := range reqs {
		if r.Key == p.failKey {
			return out, fmt.Errorf("boom on %q: %w", r.Key, ErrTransient)
		}
		data, err := GetRanges(ctx, p.Memory, []RangeReq{r})
		if err != nil {
			return out, err
		}
		out[i] = data[0]
	}
	return out, nil
}

func TestExecutePlansPartialFailure(t *testing.T) {
	ctx := context.Background()
	mem := NewMemory()
	for _, k := range []string{"a", "b", "c", "d"} {
		if err := mem.Put(ctx, k, []byte("data-"+k)); err != nil {
			t.Fatal(err)
		}
	}
	origin := &failKeyProvider{Memory: mem, failKey: "c"}
	reqs := []RangeReq{
		{Key: "a", Offset: 0, Length: -1},
		{Key: "b", Offset: 0, Length: -1},
		{Key: "c", Offset: 0, Length: -1},
		{Key: "d", Offset: 0, Length: -1},
	}
	// SizeHint 10 under cap 20 -> plans of 2: {a,b} and {c,d}. The second
	// plan fails on "c" before reaching "d"; the first must still be served.
	plans := Coalesce(reqs, PlanOptions{MaxRequestBytes: 20, SizeHint: 10})
	if len(plans) != 2 {
		t.Fatalf("want 2 plans, got %d", len(plans))
	}
	out, err := ExecutePlans(ctx, origin, len(reqs), plans)
	if err == nil {
		t.Fatal("want the failed plan's error")
	}
	if !IsRetryable(err) {
		t.Fatalf("plan error should stay transient through ExecutePlans: %v", err)
	}
	if string(out[0]) != "data-a" || string(out[1]) != "data-b" {
		t.Fatalf("sibling plan's results lost: %q %q", out[0], out[1])
	}
	if out[2] != nil || out[3] != nil {
		t.Fatalf("unserved entries must stay nil, got %q %q", out[2], out[3])
	}
}

// --- LRU prefetch ------------------------------------------------------------

func TestLRUPrefetchSkipsCachedKeys(t *testing.T) {
	ctx := context.Background()
	counting := NewCounting(NewMemory())
	lru := NewLRU(counting, 1<<20)
	keys := make([]string, 8)
	for i := range keys {
		keys[i] = fmt.Sprintf("chunk/%03d", i)
		if err := counting.Put(ctx, keys[i], bytes.Repeat([]byte{byte(i)}, 64)); err != nil {
			t.Fatal(err)
		}
	}
	// Warm two keys through the cache the on-demand way.
	for _, k := range keys[:2] {
		if _, err := lru.Get(ctx, k); err != nil {
			t.Fatal(err)
		}
	}
	counting.Reset()

	// SizeHint matches the object size so all 6 whole-object requests pack
	// into one round trip under the default request cap.
	fetched, err := lru.Prefetch(ctx, keys, PlanOptions{SizeHint: 64})
	if err != nil {
		t.Fatal(err)
	}
	if fetched != 6 {
		t.Fatalf("want 6 fetched (2 cached skipped), got %d", fetched)
	}
	snap := counting.Snapshot()
	if snap.BatchGets != 1 {
		t.Fatalf("6 small objects should coalesce into 1 batched get, got %d", snap.BatchGets)
	}
	if snap.Gets != 0 || snap.RangeGets != 0 {
		t.Fatalf("prefetch must not issue per-object requests: %+v", snap)
	}
	if got := lru.Stats().Prefetched; got != 6 {
		t.Fatalf("Stats().Prefetched = %d, want 6", got)
	}

	// Everything is cached now: a second prefetch touches no wire at all.
	counting.Reset()
	fetched, err = lru.Prefetch(ctx, keys, PlanOptions{})
	if err != nil || fetched != 0 {
		t.Fatalf("second prefetch: fetched %d err %v, want 0 nil", fetched, err)
	}
	if reqs := counting.Snapshot().Requests(); reqs != 0 {
		t.Fatalf("second prefetch issued %d origin requests", reqs)
	}
	for i, k := range keys {
		data, err := lru.Get(ctx, k)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, bytes.Repeat([]byte{byte(i)}, 64)) {
			t.Fatalf("cached payload for %q corrupted after admit-copy", k)
		}
	}
	if reqs := counting.Snapshot().Requests(); reqs != 0 {
		t.Fatalf("reads after prefetch reached the origin %d times", reqs)
	}
}

// payloadRecorder remembers the payload each wire request of a GetRanges
// round trip returned, by key.
type payloadRecorder struct {
	Provider
	mu       sync.Mutex
	wires    int
	payloads map[string][]byte
}

func (p *payloadRecorder) GetRanges(ctx context.Context, reqs []RangeReq) ([][]byte, error) {
	out, err := GetRanges(ctx, p.Provider, reqs)
	p.mu.Lock()
	defer p.mu.Unlock()
	p.wires += len(reqs)
	for i, r := range reqs {
		if out[i] != nil {
			p.payloads[r.Key] = out[i]
		}
	}
	return out, err
}

// TestPrefetchAdmitsLandedPayloads: a prefetch admits each wire payload as
// it landed, one whole object per payload, and every later read is handed
// those bytes: Get the payload itself, a GetRange hit a capped sub-slice of
// it. The cache charges exactly the objects' bytes, and no cached slice
// reaches past its object, so it keeps nothing alive that it does not
// charge.
func TestPrefetchAdmitsLandedPayloads(t *testing.T) {
	ctx := context.Background()
	origin := &payloadRecorder{Provider: NewMemory(), payloads: map[string][]byte{}}
	lru := NewShardedLRU(origin, 1<<20, 4)
	var keys []string
	var total int64
	for i := 0; i < 12; i++ {
		k := fmt.Sprintf("chunk/%03d", i)
		obj := bytes.Repeat([]byte{byte(i)}, 50+10*i)
		if err := origin.Put(ctx, k, obj); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, k)
		total += int64(len(obj))
	}
	// A key listed twice is claimed once; a small request cap spreads the
	// claims over several round trips of several wire requests each.
	claim := append(slices.Clone(keys), keys[3], keys[7])
	fetched, err := lru.Prefetch(ctx, claim, PlanOptions{SizeHint: 100, MaxRequestBytes: 400})
	if err != nil || fetched != len(keys) {
		t.Fatalf("Prefetch = %d, %v; want %d objects", fetched, err, len(keys))
	}
	if origin.wires != len(keys) {
		t.Fatalf("%d wire requests for %d objects, want one each", origin.wires, len(keys))
	}
	if st := lru.Stats(); st.UsedBytes != total {
		t.Fatalf("cache charges %d bytes, want the objects' %d", st.UsedBytes, total)
	}
	for i, k := range keys {
		payload := origin.payloads[k]
		for read := 0; read < 2; read++ {
			got, err := lru.Get(ctx, k)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != 50+10*i || got[0] != byte(i) {
				t.Fatalf("Get(%s) = %d bytes of %d", k, len(got), got[0])
			}
			if &got[0] != &payload[0] || cap(got) != len(got) || cap(payload) != len(payload) {
				t.Fatalf("Get(%s) read %d is not the landed payload, whole and capped", k, read)
			}
		}
		part, err := lru.GetRange(ctx, k, 5, 20)
		if err != nil {
			t.Fatal(err)
		}
		if len(part) != 20 || cap(part) != 20 || &part[0] != &payload[5] {
			t.Fatalf("GetRange(%s) is not a capped sub-slice of the cached object", k)
		}
	}
}

// gatedProvider blocks GetRanges until released, so a test can hold a
// prefetch batch in flight deterministically.
type gatedProvider struct {
	*Memory
	gate chan struct{}
}

func (p *gatedProvider) GetRanges(ctx context.Context, reqs []RangeReq) ([][]byte, error) {
	select {
	case <-p.gate:
	case <-ctx.Done():
		return make([][]byte, len(reqs)), ctx.Err()
	}
	return p.Memory.GetRanges(ctx, reqs)
}

func TestLRUPrefetchSkipsInflightKeys(t *testing.T) {
	ctx := context.Background()
	mem := NewMemory()
	origin := &gatedProvider{Memory: mem, gate: make(chan struct{})}
	lru := NewLRU(origin, 1<<20)
	keys := []string{"a", "b", "c"}
	for _, k := range keys {
		if err := mem.Put(ctx, k, []byte("v-"+k)); err != nil {
			t.Fatal(err)
		}
	}
	// PrefetchAsync claims leadership synchronously before its round trips
	// run (they are parked on the gate).
	if claimed := lru.PrefetchAsync(ctx, keys, PlanOptions{}); claimed != 3 {
		t.Fatalf("async claim: want 3, got %d", claimed)
	}
	// A competing blocking prefetch finds every key already in flight.
	fetched, err := lru.Prefetch(ctx, keys, PlanOptions{})
	if err != nil || fetched != 0 {
		t.Fatalf("competing prefetch: fetched %d err %v, want 0 nil", fetched, err)
	}
	// A reader issued now coalesces onto the in-flight batch and gets its
	// bytes once the gate opens.
	got := make(chan error, 1)
	go func() {
		data, err := lru.Get(ctx, "b")
		if err == nil && string(data) != "v-b" {
			err = fmt.Errorf("wrong payload %q", data)
		}
		got <- err
	}()
	close(origin.gate)
	if err := <-got; err != nil {
		t.Fatal(err)
	}
}

// shedProvider fails every batched get outright (nothing served) but serves
// plain Gets, modelling a prefetch round trip dying while on-demand reads
// still work.
type shedProvider struct {
	*Memory
	batchFails bool
	mu         sync.Mutex
	gets       int
}

func (p *shedProvider) GetRanges(ctx context.Context, reqs []RangeReq) ([][]byte, error) {
	if p.batchFails {
		return make([][]byte, len(reqs)), fmt.Errorf("batch lost: %w", ErrTransient)
	}
	return p.Memory.GetRanges(ctx, reqs)
}

func (p *shedProvider) Get(ctx context.Context, key string) ([]byte, error) {
	p.mu.Lock()
	p.gets++
	p.mu.Unlock()
	return p.Memory.Get(ctx, key)
}

func TestLRUPrefetchShedReadersRecover(t *testing.T) {
	ctx := context.Background()
	mem := NewMemory()
	origin := &shedProvider{Memory: mem, batchFails: true}
	lru := NewLRU(origin, 1<<20)
	keys := []string{"a", "b"}
	for _, k := range keys {
		if err := mem.Put(ctx, k, []byte("v-"+k)); err != nil {
			t.Fatal(err)
		}
	}
	fetched, err := lru.Prefetch(ctx, keys, PlanOptions{})
	if err == nil {
		t.Fatal("want the batch failure surfaced")
	}
	if fetched != 0 {
		t.Fatalf("nothing landed, yet fetched = %d", fetched)
	}
	// The degradation is visible in the cache stats, one count per shed key.
	if shed := lru.Stats().PrefetchShed; shed != int64(len(keys)) {
		t.Fatalf("Stats().PrefetchShed = %d, want %d", shed, len(keys))
	}
	// The flights were completed with errPrefetchShed, not left dangling:
	// readers issue their own fetch and succeed.
	for _, k := range keys {
		data, err := lru.Get(ctx, k)
		if err != nil {
			t.Fatalf("reader after shed prefetch: %v", err)
		}
		if string(data) != "v-"+k {
			t.Fatalf("reader got %q", data)
		}
	}
	if origin.gets != 2 {
		t.Fatalf("readers should have fallen back to 2 on-demand Gets, saw %d", origin.gets)
	}
}

// unwrapOnly hides every capability of the provider it wraps but Unwrap,
// like a tracing tap stacked above the cache.
type unwrapOnly struct{ Provider }

func (u unwrapOnly) Unwrap() Provider { return u.Provider }

// TestLRUPrefetchOwesHeadroomUntilRead is the accounting behind Headroom: a
// claim owes its SizeHint while on the wire, landing corrects that to the
// object's real size, and the first read frees it — a Get that joined the
// prefetch's flight included. Until then the object is never evicted: an
// overfilling Put keeps it and runs the cache over budget. Every reading goes
// through a wrapper that only unwraps, so the walk to the cache is covered as
// well.
func TestLRUPrefetchOwesHeadroomUntilRead(t *testing.T) {
	ctx := context.Background()
	mem := NewMemory()
	origin := &gatedProvider{Memory: mem, gate: make(chan struct{})}
	const capacity, hint = 10_000, 1_000
	lru := NewShardedLRU(origin, capacity, 1) // one shard: exact LRU order
	sizes := map[string]int64{"a": 100, "b": 200, "c": 300}
	for k, n := range sizes {
		if err := mem.Put(ctx, k, make([]byte, n)); err != nil {
			t.Fatal(err)
		}
	}
	wrapped := unwrapOnly{lru}
	owed := func() int64 { return capacity - Headroom(wrapped) }
	if got := Headroom(NewMemory()); got != 0 {
		t.Fatalf("a chain without an LRU has headroom %d, want 0", got)
	}
	if got := owed(); got != 0 {
		t.Fatalf("an idle cache owes %d bytes", got)
	}

	if claimed := lru.PrefetchAsync(ctx, []string{"a", "b"}, PlanOptions{SizeHint: hint}); claimed != 2 {
		t.Fatalf("claimed %d keys, want 2", claimed)
	}
	if got := owed(); got != 2*hint {
		t.Fatalf("two claims on the wire owe %d bytes, want 2 × SizeHint = %d", got, 2*hint)
	}
	if got, want := Headroom(wrapped), Headroom(lru); got != want {
		t.Fatalf("headroom through an Unwrap-only wrapper = %d, at the cache %d", got, want)
	}

	// A reader of b arriving now misses and joins the prefetch's flight;
	// wait for the miss, then open the gate. Whether it joined before the
	// bytes landed or finds them as the flight's next leader, the prefetch
	// served it.
	joined := make(chan error, 1)
	go func() {
		_, err := lru.Get(ctx, "b")
		joined <- err
	}()
	for lru.Stats().Misses == 0 {
		runtime.Gosched()
	}
	close(origin.gate)
	if err := <-joined; err != nil {
		t.Fatal(err)
	}
	if st := lru.Stats(); st.Coalesced != 1 {
		t.Fatalf("the reader of b was not served by the prefetch (coalesced %d)", st.Coalesced)
	}
	if got := owed(); got != sizes["a"] {
		t.Fatalf("after landing and the joined read of b, owed %d bytes, want a's real size %d", got, sizes["a"])
	}

	if _, err := lru.Get(ctx, "a"); err != nil {
		t.Fatal(err)
	}
	if got := owed(); got != 0 {
		t.Fatalf("after reading a, owed %d bytes, want 0", got)
	}

	if _, err := lru.Prefetch(ctx, []string{"c"}, PlanOptions{SizeHint: hint}); err != nil {
		t.Fatal(err)
	}
	if got := owed(); got != sizes["c"] {
		t.Fatalf("landed unread c owes %d bytes, want %d", got, sizes["c"])
	}
	// Admitting d overfills the cache by more than the read a and b hold:
	// they go, and the unread c stays, over budget.
	if err := lru.Put(ctx, "d", make([]byte, capacity-100)); err != nil {
		t.Fatal(err)
	}
	if got := owed(); got != sizes["c"] {
		t.Fatalf("after an overfilling Put, owed %d bytes, want unread c's %d", got, sizes["c"])
	}
	if st, want := lru.Stats(), capacity-100+sizes["c"]; st.UsedBytes != want {
		t.Fatalf("resident %d bytes, want c and d's %d, over the %d capacity", st.UsedBytes, want, capacity)
	}
}

// --- Sim batch pricing -------------------------------------------------------

func TestSimBatchedGetCostsOneRoundTrip(t *testing.T) {
	ctx := context.Background()
	fast := simnet.Profile{Name: "fast", Lanes: 16, TimeScale: 1e9,
		ReadBytesPerSec: 1e12, WriteBytesPerSec: 1e12}
	sim := NewSim(NewMemory(), fast)
	const n = 16
	var reqs []RangeReq
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("k%02d", i)
		if err := sim.Put(ctx, k, bytes.Repeat([]byte{byte(i)}, 128)); err != nil {
			t.Fatal(err)
		}
		reqs = append(reqs, RangeReq{Key: k, Offset: 0, Length: -1})
	}
	base, _, _, _ := sim.Network().Stats()

	out, err := sim.GetRanges(ctx, reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i, data := range out {
		if len(data) != 128 || data[0] != byte(i) {
			t.Fatalf("range %d payload wrong", i)
		}
	}
	afterBatch, batchBytes, _, _ := sim.Network().Stats()
	if afterBatch-base != 1 {
		t.Fatalf("a %d-range batch must pay exactly 1 simulated request, paid %d", n, afterBatch-base)
	}
	if batchBytes < int64(n*128) {
		t.Fatalf("batch must pay bandwidth for the full payload, charged %d bytes", batchBytes)
	}

	// The same reads issued individually pay n requests.
	for i := 0; i < n; i++ {
		if _, err := sim.Get(ctx, fmt.Sprintf("k%02d", i)); err != nil {
			t.Fatal(err)
		}
	}
	afterSingles, _, _, _ := sim.Network().Stats()
	if afterSingles-afterBatch != n {
		t.Fatalf("%d individual gets must pay %d requests, paid %d", n, n, afterSingles-afterBatch)
	}
}

func TestCountingBatchCounters(t *testing.T) {
	ctx := context.Background()
	c := NewCounting(NewMemory())
	for _, k := range []string{"a", "b", "c"} {
		if err := c.Put(ctx, k, []byte("xyz")); err != nil {
			t.Fatal(err)
		}
	}
	c.Reset()
	reqs := []RangeReq{
		{Key: "a", Offset: 0, Length: -1},
		{Key: "b", Offset: 0, Length: 2},
		{Key: "c", Offset: 1, Length: 2},
	}
	if _, err := c.GetRanges(ctx, reqs); err != nil {
		t.Fatal(err)
	}
	snap := c.Snapshot()
	if snap.BatchGets != 1 {
		t.Fatalf("BatchGets = %d, want 1", snap.BatchGets)
	}
	if snap.BatchRanges != 3 {
		t.Fatalf("BatchRanges = %d, want 3", snap.BatchRanges)
	}
	if snap.Gets != 0 || snap.RangeGets != 0 {
		t.Fatalf("batched get must not count as per-object ops: %+v", snap)
	}
	if snap.Requests() != 1 {
		t.Fatalf("Requests() = %d, want 1 (batch is one round trip)", snap.Requests())
	}
}

// --- Retry over batched gets -------------------------------------------------

// TestRetryGetRangesReissuesOnlyMissing: one fault inside a batched get costs
// exactly one extra origin round trip carrying only the ranges not yet
// served — whether the batch is issued directly or is the single fetch plan
// an LRU.Prefetch above the Retry coalesced the keys into, in which case
// every key also ends up cache-resident and later reads stay off the origin.
func TestRetryGetRangesReissuesOnlyMissing(t *testing.T) {
	for _, via := range []string{"retry", "lru-prefetch"} {
		t.Run(via, func(t *testing.T) {
			ctx := context.Background()
			mem := NewMemory()
			const n = 8
			var reqs []RangeReq
			var keys []string
			for i := 0; i < n; i++ {
				k := fmt.Sprintf("k%d", i)
				if err := mem.Put(ctx, k, []byte("v-"+k)); err != nil {
					t.Fatal(err)
				}
				keys = append(keys, k)
				reqs = append(reqs, RangeReq{Key: k, Offset: 0, Length: -1})
			}
			// Exactly one injected fault on the first batched get, then
			// transparent.
			faulty := NewFaulty(mem, FaultConfig{Seed: 7, GetErrRate: 1, MaxFaults: 1})
			counting := NewCounting(faulty)
			retry := NewRetry(counting, RetryOptions{Attempts: 3})
			cache := NewLRU(retry, 1<<20)

			if via == "retry" {
				out, err := retry.GetRanges(ctx, reqs)
				if err != nil {
					t.Fatal(err)
				}
				for i, data := range out {
					if string(data) != "v-"+reqs[i].Key {
						t.Fatalf("range %d: got %q", i, data)
					}
				}
			} else if fetched, err := cache.Prefetch(ctx, keys, PlanOptions{SizeHint: 8}); err != nil || fetched != n {
				t.Fatalf("Prefetch = %d, %v; want all %d keys through the faulted batch", fetched, err, n)
			}
			if got := faulty.Stats().Total(); got != 1 {
				t.Fatalf("want exactly 1 injected fault, got %d", got)
			}
			snap := counting.Snapshot()
			if snap.BatchGets != 2 {
				t.Fatalf("one mid-batch fault must cost exactly one extra batched request: BatchGets = %d, want 2", snap.BatchGets)
			}
			// The re-issue carries only the missing tail: total ranges on the
			// wire stay under 2n (a full resend).
			if snap.BatchRanges >= 2*n {
				t.Fatalf("retry resent already-received ranges: %d wire ranges for %d requests", snap.BatchRanges, n)
			}
			if snap.BatchRanges < n {
				t.Fatalf("wire ranges %d cannot be below the request count %d", snap.BatchRanges, n)
			}
			if snap.Gets != 0 || snap.RangeGets != 0 {
				t.Fatalf("recovery degraded to per-object requests: %+v", snap)
			}
			if got := retry.Stats().Retries; got != 1 {
				t.Fatalf("Retries = %d, want 1", got)
			}
			if via == "retry" {
				return
			}
			for _, k := range keys {
				if data, err := cache.Get(ctx, k); err != nil || string(data) != "v-"+k {
					t.Fatalf("cached %q = %q, %v", k, data, err)
				}
			}
			if after := counting.Snapshot().Requests(); after != snap.Requests() {
				t.Fatalf("reads after the prefetch reached the origin (%d -> %d requests)", snap.Requests(), after)
			}
		})
	}
}

// --- Faulty batched-get schedule ---------------------------------------------

// faultTrace records one GetRanges outcome for reproducibility comparison.
type faultTrace struct {
	served  int
	nilTail int
	failed  bool
}

func runFaultySchedule(t *testing.T, seed int64) []faultTrace {
	t.Helper()
	ctx := context.Background()
	mem := NewMemory()
	const n = 6
	var reqs []RangeReq
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("k%d", i)
		if err := mem.Put(ctx, k, bytes.Repeat([]byte{byte('A' + i)}, 32)); err != nil {
			t.Fatal(err)
		}
		reqs = append(reqs, RangeReq{Key: k, Offset: 0, Length: -1})
	}
	f := NewFaulty(mem, FaultConfig{Seed: seed, GetErrRate: 0.5})
	var trace []faultTrace
	for call := 0; call < 20; call++ {
		out, err := f.GetRanges(ctx, reqs)
		tr := faultTrace{failed: err != nil}
		// Count the served prefix and verify the partial-results contract:
		// non-nil entries form a prefix, every non-nil entry carries the
		// right bytes, and everything after the cut is nil.
		cut := len(out)
		for i, data := range out {
			if data == nil {
				cut = i
				break
			}
			if want := bytes.Repeat([]byte{byte('A' + i)}, 32); !bytes.Equal(data, want) {
				t.Fatalf("call %d: served sibling %d poisoned by mid-batch fault", call, i)
			}
		}
		tr.served = cut
		for i := cut; i < len(out); i++ {
			if out[i] != nil {
				t.Fatalf("call %d: non-nil entry %d after the cut at %d", call, i, cut)
			}
			tr.nilTail++
		}
		if err == nil && tr.served != n {
			t.Fatalf("call %d: clean call served only %d/%d", call, tr.served, n)
		}
		if err != nil && !IsRetryable(err) {
			t.Fatalf("call %d: injected batch fault must stay transient: %v", call, err)
		}
		trace = append(trace, tr)
	}
	if f.Stats().Total() == 0 {
		t.Fatalf("seed %d injected no faults over 20 calls at rate 0.5", seed)
	}
	return trace
}

func TestFaultyBatchedGetSeededReproducibility(t *testing.T) {
	a := runFaultySchedule(t, 42)
	b := runFaultySchedule(t, 42)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different fault schedule:\n%+v\n%+v", a, b)
	}
	c := runFaultySchedule(t, 43)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical schedules (suspicious hash)")
	}
}
