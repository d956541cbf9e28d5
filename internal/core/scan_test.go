package core

import (
	"context"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/chunk"
	"repro/internal/storage"
	"repro/internal/tensor"
)

// scanDataset builds a flushed single-tensor dataset with enough rows to
// span several chunks.
func scanDataset(t *testing.T, n int) (*Dataset, *Tensor) {
	return scanDatasetOn(t, storage.NewMemory(), n)
}

func scanDatasetOn(t *testing.T, store storage.Provider, n int) (*Dataset, *Tensor) {
	t.Helper()
	ctx := context.Background()
	ds, err := Create(ctx, store, "scan")
	if err != nil {
		t.Fatal(err)
	}
	x, err := ds.CreateTensor(ctx, TensorSpec{
		Name: "x", Dtype: tensor.Int32,
		Bounds: chunk.Bounds{Min: 256, Target: 512, Max: 1024},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		arr, _ := tensor.FromFloat64s(tensor.Int32, []int{4}, []float64{float64(i), 0, 0, 0})
		if err := x.Append(ctx, arr); err != nil {
			t.Fatal(err)
		}
	}
	if err := ds.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	return ds, x
}

// TestScanReaderFetchHook: a reader built with NewScanReaderWith pulls every
// chunk through the hook exactly once per chunk on an ascending walk, and
// StoredAt hands back the stored samples the direct path would decode.
func TestScanReaderFetchHook(t *testing.T) {
	const n = 200
	ctx := context.Background()
	_, x := scanDataset(t, n)

	var fetches int64
	r := x.NewScanReaderWith(func(ctx context.Context, chunkID uint64) ([]chunk.Sample, error) {
		atomic.AddInt64(&fetches, 1)
		return x.ReadChunkSamples(ctx, chunkID)
	})
	for i := uint64(0); i < n; i++ {
		s, ok, err := r.StoredAt(ctx, i)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("row %d took the fallback path on a plain flushed tensor", i)
		}
		arr, err := x.DecodeStored(s.Data, s.Shape)
		if err != nil {
			t.Fatal(err)
		}
		if v, _ := arr.At(0); v != float64(i) {
			t.Fatalf("row %d decoded to %v", i, v)
		}
	}
	if want := int64(x.NumChunks()); fetches != want {
		t.Fatalf("ascending walk fetched %d times for %d chunks", fetches, want)
	}
}

// TestScanReaderAtMatchesTensorAt: the chunk-reusing read path returns the
// same arrays as the direct per-sample path, including via the fetch hook.
func TestScanReaderAtMatchesTensorAt(t *testing.T) {
	const n = 120
	ctx := context.Background()
	_, x := scanDataset(t, n)
	direct := x.NewScanReader()
	hooked := x.NewScanReaderWith(func(ctx context.Context, chunkID uint64) ([]chunk.Sample, error) {
		return x.ReadChunkSamples(ctx, chunkID)
	})
	for i := uint64(0); i < n; i++ {
		want, err := x.At(ctx, i)
		if err != nil {
			t.Fatal(err)
		}
		for name, r := range map[string]*ScanReader{"direct": direct, "hooked": hooked} {
			got, err := r.At(ctx, i)
			if err != nil {
				t.Fatalf("%s row %d: %v", name, i, err)
			}
			if !got.Equal(want) {
				t.Fatalf("%s row %d differs from Tensor.At", name, i)
			}
		}
	}
}

// TestScanReaderFallsBackForWriteBufferedRows: rows still in the chunk
// builder are not served from sealed chunks; StoredAt reports the fallback
// and ScanReader.At transparently reads them through Tensor.At.
func TestScanReaderFallsBackForWriteBufferedRows(t *testing.T) {
	ctx := context.Background()
	ds, err := Create(ctx, storage.NewMemory(), "pending")
	if err != nil {
		t.Fatal(err)
	}
	x, err := ds.CreateTensor(ctx, TensorSpec{Name: "x", Dtype: tensor.Int32})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		arr, _ := tensor.FromFloat64s(tensor.Int32, []int{1}, []float64{float64(i)})
		if err := x.Append(ctx, arr); err != nil {
			t.Fatal(err)
		}
	}
	// No flush: every row is write-buffered.
	r := x.NewScanReader()
	if _, ok, err := r.StoredAt(ctx, 3); err != nil || ok {
		t.Fatalf("StoredAt on a buffered row: ok=%v err=%v, want fallback", ok, err)
	}
	arr, err := r.At(ctx, 3)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := arr.At(0); v != 3 {
		t.Fatalf("buffered row read %v", v)
	}
}

// stripRecorder is a provider chain head that can "prefetch": it records the
// key batches StripPlan hands it, in call order, and claims every key.
type stripRecorder struct {
	storage.Provider
	mu     sync.Mutex
	strips [][]string
}

func (r *stripRecorder) Prefetch(ctx context.Context, keys []string, opts storage.PlanOptions) (int, error) {
	return r.PrefetchAsync(ctx, keys, opts), nil
}

func (r *stripRecorder) PrefetchAsync(_ context.Context, keys []string, _ storage.PlanOptions) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.strips = append(r.strips, slices.Clone(keys))
	return len(keys)
}

// take returns and clears the strips recorded so far.
func (r *stripRecorder) take() [][]string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.strips
	r.strips = nil
	return out
}

// TestStripPlanCoversVisitOrderExactlyOnce is the planner's property test:
// over random visit orders, step layouts, widths and Cover sequences, every
// sealed chunk is handed to the Prefetcher exactly once, in visit order, in
// strips no wider than width steps; Cover(n) stops at the end of the strip
// holding step n-1; the write-buffered chunk and ids the version map does not
// know are skipped.
func TestStripPlanCoversVisitOrderExactlyOnce(t *testing.T) {
	ctx := context.Background()
	rec := &stripRecorder{Provider: storage.NewMemory()}
	_, x := scanDatasetOn(t, rec, 800)
	// A few unflushed rows: their chunk is still in the write buffer.
	for i := 0; i < 3; i++ {
		arr, _ := tensor.FromFloat64s(tensor.Int32, []int{4}, []float64{float64(i), 0, 0, 0})
		if err := x.Append(ctx, arr); err != nil {
			t.Fatal(err)
		}
	}
	const unknown = uint64(1) << 40
	keyOf := map[uint64]string{}
	var sealed []uint64
	for _, sp := range x.ChunkSpans() {
		if sp.ChunkID != x.pendingID {
			sealed = append(sealed, sp.ChunkID)
			keyOf[sp.ChunkID] = x.ChunkIdentity(sp.ChunkID)
		}
	}
	if len(sealed) < 20 {
		t.Fatalf("only %d sealed chunks; the test wants several strips", len(sealed))
	}

	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 300; trial++ {
		ids := append(slices.Clone(sealed), x.pendingID, unknown)
		rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
		ids = ids[:1+rng.Intn(len(ids))]
		// Every third trial is a driver's plan: one id a step. The others
		// spread the ids over steps that need none, one or several of them.
		steps := len(ids)
		var through []int
		if trial%3 != 0 {
			steps = 1 + rng.Intn(2*len(ids))
			through = make([]int, steps)
			for s := range through {
				through[s] = rng.Intn(len(ids) + 1)
			}
			slices.Sort(through)
			through[steps-1] = len(ids)
		}
		before := func(step int) int {
			if through == nil || step == 0 {
				return step
			}
			return through[step-1]
		}
		width := 1 + rng.Intn(9)
		planned := 0
		plan := NewStripPlan(x, ids, through, width, func(n, claimed int, err error) {
			if err != nil || n == 0 || claimed > n || (through == nil && n > width) {
				t.Errorf("strip of %d ids (width %d): claimed %d, err %v", n, width, claimed, err)
			}
			planned += n
		})
		issued := 0 // steps handed out so far: always a strip boundary
		for call := 0; call < 12; call++ {
			n := rng.Intn(steps + 3) // past the end now and then; not monotone
			plan.Cover(ctx, n)
			end := issued
			if n > end {
				end = min((n+width-1)/width*width, steps)
			}
			var got, want []string
			for _, strip := range rec.take() {
				got = append(got, strip...)
			}
			for _, id := range ids[before(issued):before(end)] {
				if key, ok := keyOf[id]; ok {
					want = append(want, key)
				}
			}
			if !slices.Equal(got, want) {
				t.Fatalf("trial %d width %d: Cover(%d) with %d of %d steps issued handed out\n%v\nwant the ids of steps [%d,%d)\n%v", trial, width, n, issued, steps, got, issued, end, want)
			}
			issued = end
			if planned != before(issued) {
				t.Fatalf("trial %d: issued hook saw %d ids, the plan has handed out %d", trial, planned, before(issued))
			}
		}
	}
}

// TestStripPlanConcurrentCover: callers racing Cover still hand every id
// over exactly once, in visit order. Run under -race.
func TestStripPlanConcurrentCover(t *testing.T) {
	ctx := context.Background()
	rec := &stripRecorder{Provider: storage.NewMemory()}
	_, x := scanDatasetOn(t, rec, 800)
	var ids []uint64
	var want []string
	for _, sp := range x.ChunkSpans() {
		ids = append(ids, sp.ChunkID)
		want = append(want, x.ChunkIdentity(sp.ChunkID))
	}
	for _, width := range []int{1, 3, 8} {
		plan := NewStripPlan(x, ids, nil, width, nil)
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for n := g; n <= len(ids); n += 3 {
					plan.Cover(ctx, n)
				}
				plan.Cover(ctx, len(ids))
			}(g)
		}
		wg.Wait()
		var got []string
		for _, strip := range rec.take() {
			got = append(got, strip...)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("width %d: concurrent Cover handed out\n%v\nwant each chunk once in visit order\n%v", width, got, want)
		}
	}
}

// TestStripPlanNoPrefetcher: over a chain that cannot prefetch the plan
// advances and moves nothing.
func TestStripPlanNoPrefetcher(t *testing.T) {
	counting := storage.NewCounting(storage.NewMemory())
	_, x := scanDatasetOn(t, counting, 200)
	var ids []uint64
	for _, sp := range x.ChunkSpans() {
		ids = append(ids, sp.ChunkID)
	}
	counting.Reset()
	strips := 0
	plan := NewStripPlan(x, ids, nil, 4, func(n, claimed int, err error) {
		if claimed != 0 || err != nil {
			t.Errorf("strip claimed %d chunks, err %v, with no Prefetcher in the chain", claimed, err)
		}
		strips++
	})
	plan.Cover(context.Background(), len(ids))
	if want := (len(ids) + 3) / 4; strips != want {
		t.Fatalf("%d strips planned, want %d", strips, want)
	}
	if reqs := counting.Snapshot().Requests(); reqs != 0 {
		t.Fatalf("%d origin requests from a plan over a chain with no Prefetcher", reqs)
	}
}
