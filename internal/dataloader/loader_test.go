package dataloader

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/chunk"
	"repro/internal/core"
	"repro/internal/simnet"
	"repro/internal/storage"
	"repro/internal/tensor"
	"repro/internal/view"
)

var smallBounds = chunk.Bounds{Min: 256, Target: 512, Max: 1024}

// loaderDataset builds a dataset of n rows: "x" [4]int32 identifying the
// row, and "label" scalar int32 = row % 5.
func loaderDataset(t testing.TB, store storage.Provider, n int) *core.Dataset {
	t.Helper()
	ctx := context.Background()
	ds, err := core.Create(ctx, store, "loadertest")
	if err != nil {
		t.Fatal(err)
	}
	x, _ := ds.CreateTensor(ctx, core.TensorSpec{Name: "x", Dtype: tensor.Int32, Bounds: smallBounds})
	lbl, _ := ds.CreateTensor(ctx, core.TensorSpec{Name: "label", Htype: "class_label", Bounds: smallBounds})
	for i := 0; i < n; i++ {
		arr, _ := tensor.FromFloat64s(tensor.Int32, []int{4}, []float64{float64(i), float64(i + 1), float64(i + 2), float64(i + 3)})
		if err := x.Append(ctx, arr); err != nil {
			t.Fatal(err)
		}
		if err := lbl.Append(ctx, tensor.Scalar(tensor.Int32, float64(i%5))); err != nil {
			t.Fatal(err)
		}
	}
	if err := ds.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	return ds
}

func drain(t testing.TB, l *Loader) []Batch {
	t.Helper()
	var out []Batch
	for b := range l.Batches(context.Background()) {
		out = append(out, b)
	}
	if err := l.Err(); err != nil {
		t.Fatalf("loader error: %v", err)
	}
	return out
}

func TestSequentialEpochCoversAllRowsInOrder(t *testing.T) {
	ds := loaderDataset(t, storage.NewMemory(), 100)
	l := ForDataset(ds, Options{BatchSize: 8, Workers: 4})
	batches := drain(t, l)
	if len(batches) != 13 {
		t.Fatalf("batches = %d, want 13 (12 full + partial)", len(batches))
	}
	var rows []float64
	for _, b := range batches {
		for _, s := range b.Samples {
			v, _ := s["x"].At(0)
			rows = append(rows, v)
		}
	}
	if len(rows) != 100 {
		t.Fatalf("delivered %d rows", len(rows))
	}
	for i, v := range rows {
		if v != float64(i) {
			t.Fatalf("row %d delivered out of order: %v", i, v)
		}
	}
	if l.Rows() != 100 {
		t.Fatalf("Rows() = %d", l.Rows())
	}
}

func TestBatchIndexAndStacking(t *testing.T) {
	ds := loaderDataset(t, storage.NewMemory(), 20)
	l := ForDataset(ds, Options{BatchSize: 5, Workers: 2})
	batches := drain(t, l)
	for i, b := range batches {
		if b.Index != i {
			t.Fatalf("batch %d has index %d", i, b.Index)
		}
		stacked, ok := b.Stacked["x"]
		if !ok {
			t.Fatal("x not stacked despite uniform shape")
		}
		if !reflect.DeepEqual(stacked.Shape(), []int{5, 4}) {
			t.Fatalf("stacked shape = %v", stacked.Shape())
		}
	}
}

func TestDropLast(t *testing.T) {
	ds := loaderDataset(t, storage.NewMemory(), 22)
	l := ForDataset(ds, Options{BatchSize: 8, DropLast: true, Workers: 2})
	batches := drain(t, l)
	if len(batches) != 2 {
		t.Fatalf("batches = %d, want 2 (trailing 6 dropped)", len(batches))
	}
}

func TestShuffleIsPermutationAndSeeded(t *testing.T) {
	ds := loaderDataset(t, storage.NewMemory(), 200)
	run := func(seed int64) []float64 {
		l := ForDataset(ds, Options{BatchSize: 10, Shuffle: true, Seed: seed, ShuffleBuffer: 32, Workers: 4})
		var rows []float64
		for _, b := range drain(t, l) {
			for _, s := range b.Samples {
				v, _ := s["x"].At(0)
				rows = append(rows, v)
			}
		}
		return rows
	}
	a := run(1)
	b := run(1)
	c := run(2)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed must reproduce the same order")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds should differ")
	}
	// Permutation property: every row exactly once.
	sorted := append([]float64(nil), a...)
	sort.Float64s(sorted)
	for i, v := range sorted {
		if v != float64(i) {
			t.Fatalf("shuffle lost/duplicated rows at %d: %v", i, v)
		}
	}
	// Not the identity order.
	identity := true
	for i, v := range a {
		if v != float64(i) {
			identity = false
			break
		}
	}
	if identity {
		t.Fatal("shuffle produced identity order")
	}
}

func TestFieldSelection(t *testing.T) {
	ds := loaderDataset(t, storage.NewMemory(), 10)
	l := ForDataset(ds, Options{BatchSize: 2, Fields: []string{"label"}, Workers: 2})
	batches := drain(t, l)
	for _, b := range batches {
		for _, s := range b.Samples {
			if _, ok := s["x"]; ok {
				t.Fatal("x loaded despite field selection")
			}
			if _, ok := s["label"]; !ok {
				t.Fatal("label missing")
			}
		}
	}
	bad := ForDataset(ds, Options{Fields: []string{"zzz"}})
	for range bad.Batches(context.Background()) {
	}
	if bad.Err() == nil {
		t.Fatal("unknown field should error")
	}
}

func TestTransformRunsPerSample(t *testing.T) {
	ds := loaderDataset(t, storage.NewMemory(), 30)
	l := ForDataset(ds, Options{
		BatchSize: 4,
		Workers:   4,
		Transform: func(s map[string]*tensor.NDArray) (map[string]*tensor.NDArray, error) {
			doubled, err := s["x"].Mul(tensor.Scalar(tensor.Float64, 2))
			if err != nil {
				return nil, err
			}
			return map[string]*tensor.NDArray{"x2": doubled}, nil
		},
	})
	batches := drain(t, l)
	total := 0
	for _, b := range batches {
		for _, s := range b.Samples {
			if len(s) != 1 {
				t.Fatalf("transform output keys = %v", s)
			}
			total++
		}
	}
	if total != 30 {
		t.Fatalf("rows = %d", total)
	}
	first, _ := batches[0].Samples[0]["x2"].At(0)
	if first != 0 {
		t.Fatalf("x2[0] = %v", first)
	}
	second, _ := batches[0].Samples[1]["x2"].At(0)
	if second != 2 {
		t.Fatalf("x2 of row 1 = %v, want 2", second)
	}
}

func TestTransformErrorPropagates(t *testing.T) {
	ds := loaderDataset(t, storage.NewMemory(), 10)
	boom := errors.New("bad sample")
	l := ForDataset(ds, Options{
		Workers: 2,
		Transform: func(s map[string]*tensor.NDArray) (map[string]*tensor.NDArray, error) {
			v, _ := s["x"].At(0)
			if v == 5 {
				return nil, boom
			}
			return s, nil
		},
	})
	for range l.Batches(context.Background()) {
	}
	if err := l.Err(); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want injected failure", err)
	}
}

func TestStorageErrorPropagates(t *testing.T) {
	inner := storage.NewMemory()
	loaderDataset(t, inner, 64)
	boom := errors.New("storage down")
	// Reopen the dataset against a flaky provider.
	flaky := storage.NewFlaky(inner, 3, boom)
	ds2, err := core.Open(context.Background(), flaky)
	if err == nil {
		l := ForDataset(ds2, Options{Workers: 2})
		for range l.Batches(context.Background()) {
		}
		if lerr := l.Err(); !errors.Is(lerr, boom) {
			t.Fatalf("err = %v, want storage failure", lerr)
		}
		return
	}
	// Open itself may hit the injected failure, which is also fine.
	if !errors.Is(err, boom) {
		t.Fatalf("unexpected open error: %v", err)
	}
}

// gatedGets holds every read of an armed provider until want of them are in
// flight at once, then lets all through: a loader that cannot put want
// concurrent Gets on the wire never gets past it.
type gatedGets struct {
	storage.Provider
	want int

	mu       sync.Mutex
	armed    bool
	inflight int
	open     chan struct{}
}

func (g *gatedGets) wait(ctx context.Context) error {
	g.mu.Lock()
	if !g.armed {
		g.mu.Unlock()
		return nil
	}
	if g.inflight++; g.inflight == g.want {
		close(g.open)
	}
	g.mu.Unlock()
	select {
	case <-g.open:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (g *gatedGets) Get(ctx context.Context, key string) ([]byte, error) {
	if err := g.wait(ctx); err != nil {
		return nil, err
	}
	return g.Provider.Get(ctx, key)
}

func (g *gatedGets) GetRange(ctx context.Context, key string, offset, length int64) ([]byte, error) {
	if err := g.wait(ctx); err != nil {
		return nil, err
	}
	return g.Provider.GetRange(ctx, key, offset, length)
}

// TestWorkersAreIOParallelismWithoutPrefetcher: over a provider chain with
// no storage.Prefetcher the batched-prefetch path is a no-op, so Workers is
// the only IO parallelism there is and must not be capped by the CPU count.
// With one CPU the cap would be 2 workers; the gate needs 8 concurrent Gets.
func TestWorkersAreIOParallelismWithoutPrefetcher(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const want, rows = 8, 2048
	gate := &gatedGets{Provider: storage.NewMemory(), want: want, open: make(chan struct{})}
	ds := loaderDataset(t, gate, rows)
	// Chunk groups larger than rows/(Workers*core.Oversubscribe) are split into
	// sub-jobs that share one fetch; keep them smaller, so 16 busy workers
	// are 16 distinct chunks.
	if n := ds.Tensor("x").NumChunks(); n < 16*core.Oversubscribe {
		t.Fatalf("dataset has %d chunks; workers would share chunk fetches", n)
	}
	gate.mu.Lock()
	gate.armed = true
	gate.mu.Unlock()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	l := ForDataset(ds, Options{BatchSize: 16, Workers: 16, Fields: []string{"x"}})
	got := 0
	for b := range l.Batches(ctx) {
		got += len(b.Samples)
	}
	if err := l.Err(); err != nil {
		gate.mu.Lock()
		defer gate.mu.Unlock()
		t.Fatalf("16 workers reached %d concurrent Gets, want %d: %v", gate.inflight, want, err)
	}
	if got != rows {
		t.Fatalf("delivered %d/%d rows", got, rows)
	}
}

func TestContextCancellationStopsPipeline(t *testing.T) {
	ds := loaderDataset(t, storage.NewMemory(), 1000)
	ctx, cancel := context.WithCancel(context.Background())
	l := ForDataset(ds, Options{BatchSize: 1, Workers: 2})
	ch := l.Batches(ctx)
	<-ch // first batch
	cancel()
	for range ch {
	}
	// No deadlock is the main assertion; Err may report ctx.Canceled.
}

func TestChunkCacheDeduplicatesFetches(t *testing.T) {
	inner := storage.NewMemory()
	counting := storage.NewCounting(inner)
	ds := loaderDataset(t, counting, 256)

	counting.Reset()
	l := ForDataset(ds, Options{BatchSize: 16, Workers: 8})
	drain(t, l)
	chunks := int64(ds.Tensor("x").NumChunks() + ds.Tensor("label").NumChunks())
	if gets := counting.Snapshot().Gets; gets > chunks {
		t.Fatalf("epoch fetched %d objects for %d chunks; cache failed to deduplicate", gets, chunks)
	}
	if _, misses := l.CacheStats(); misses == 0 {
		t.Fatalf("cache stats misses=%d", misses)
	}
	if decodes := l.CacheDecodes(); decodes != chunks {
		t.Fatalf("decoded %d chunks, want exactly %d", decodes, chunks)
	}
}

func TestViewStreamingWithComputedColumn(t *testing.T) {
	ds := loaderDataset(t, storage.NewMemory(), 40)
	ctx := context.Background()
	xt := ds.Tensor("x")
	v := view.New(ds, []uint64{5, 10, 15, 20}, []view.Column{
		{Name: "x", Source: "x"},
		{Name: "sum", Eval: func(ctx context.Context, row uint64) (*tensor.NDArray, error) {
			arr, err := xt.At(ctx, row)
			if err != nil {
				return nil, err
			}
			return tensor.Scalar(tensor.Float64, arr.Sum()), nil
		}},
	})
	l := New(v, Options{BatchSize: 2, Workers: 2})
	batches := drain(t, l)
	if len(batches) != 2 {
		t.Fatalf("batches = %d", len(batches))
	}
	s, _ := batches[0].Samples[0]["sum"].Item()
	// Row 5: 5+6+7+8 = 26.
	if s != 26 {
		t.Fatalf("sum = %v", s)
	}
	_ = ctx
}

func TestRawBytesMode(t *testing.T) {
	ds := loaderDataset(t, storage.NewMemory(), 4)
	l := ForDataset(ds, Options{Fields: []string{"x"}, RawBytes: true, Workers: 1})
	batches := drain(t, l)
	arr := batches[0].Samples[0]["x"]
	if arr.Dtype() != tensor.UInt8 || arr.NDim() != 1 {
		t.Fatalf("raw mode array = %v", arr)
	}
	if arr.Len() != 16 { // 4 int32 values
		t.Fatalf("raw bytes = %d", arr.Len())
	}
}

func TestStreamingFromSimulatedS3(t *testing.T) {
	// End-to-end: dataset on a simulated S3 bucket, parallel loader
	// saturates the lanes and completes the epoch.
	profile := simnet.Profile{
		Name: "test-s3", ReadLatency: 2_000_000, WriteLatency: 2_000_000,
		ReadBytesPerSec: 200e6, WriteBytesPerSec: 200e6, Lanes: 16, TimeScale: 1000,
	}
	store := storage.NewSimObjectStore(profile)
	ds := loaderDataset(t, store, 128)
	l := ForDataset(ds, Options{BatchSize: 16, Workers: 8, Shuffle: true, Seed: 7})
	batches := drain(t, l)
	n := 0
	for _, b := range batches {
		n += len(b.Samples)
	}
	if n != 128 {
		t.Fatalf("rows = %d", n)
	}
}

func TestEmptyDataset(t *testing.T) {
	ctx := context.Background()
	ds, _ := core.Create(ctx, storage.NewMemory(), "empty")
	ds.CreateTensor(ctx, core.TensorSpec{Name: "x", Dtype: tensor.Int32})
	l := ForDataset(ds, Options{})
	batches := drain(t, l)
	if len(batches) != 0 {
		t.Fatalf("batches = %d", len(batches))
	}
}

func BenchmarkLoaderThroughput(b *testing.B) {
	ds := loaderDataset(b, storage.NewMemory(), 2000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l := ForDataset(ds, Options{BatchSize: 32, Workers: 8})
		n := 0
		for batch := range l.Batches(context.Background()) {
			n += len(batch.Samples)
		}
		if n != 2000 {
			b.Fatalf("rows = %d", n)
		}
	}
}

// TestMultiEpochBatchesDoNotPinDroppedBatches: many epochs through one
// Batches call, every batch dropped on receipt. The worker and collator
// arenas Forget their slabs as they go, so the heap after epoch 10 is what
// it was after epoch 2; an arena that kept its filled slabs would hold every
// epoch's samples and stacked columns until the call ended. Both readings
// are taken inside the call (on the first batch of the following epoch),
// while the pipeline and its arenas are alive.
func TestMultiEpochBatchesDoNotPinDroppedBatches(t *testing.T) {
	ctx := context.Background()
	ds, err := core.Create(ctx, storage.NewMemory(), "epochs")
	if err != nil {
		t.Fatal(err)
	}
	x, err := ds.CreateTensor(ctx, core.TensorSpec{Name: "x", Dtype: tensor.UInt8})
	if err != nil {
		t.Fatal(err)
	}
	const rows, sampleBytes = 1024, 8 << 10 // 8 MB an epoch, twice with collation
	for i := 0; i < rows; i++ {
		arr := tensor.MustNew(tensor.UInt8, sampleBytes)
		arr.Bytes()[0] = byte(i)
		if err := x.Append(ctx, arr); err != nil {
			t.Fatal(err)
		}
	}
	if err := ds.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	heapInuse := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapInuse
	}
	l := ForDataset(ds, Options{BatchSize: 32, Workers: 2, Epochs: 11})
	var afterTwo, afterTen uint64
	for b := range l.Batches(ctx) {
		switch {
		case b.Epoch == 2 && afterTwo == 0:
			afterTwo = heapInuse()
		case b.Epoch == 10 && afterTen == 0:
			afterTen = heapInuse()
		}
	}
	if err := l.Err(); err != nil {
		t.Fatal(err)
	}
	if afterTwo == 0 || afterTen == 0 {
		t.Fatalf("missed an epoch boundary: after two %d, after ten %d", afterTwo, afterTen)
	}
	if afterTen > 2*afterTwo {
		t.Fatalf("heap in use grew from %d MB after epoch 2 to %d MB after epoch 10 with every batch dropped",
			afterTwo>>20, afterTen>>20)
	}
	t.Logf("heap in use: %d MB after epoch 2, %d MB after epoch 10", afterTwo>>20, afterTen>>20)
}
