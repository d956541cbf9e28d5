package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/storage"
	"repro/internal/tensor"
)

// The write-path stress suite: run with -race. It covers the lock-split
// invariants — appends to disjoint tensors proceed concurrently, Flush is a
// consistent barrier against in-flight appends, and a cancelled ingest
// leaves the dataset reopenable at its last flushed state.

// TestParallelWritersDisjointTensors hammers one dataset with 16 goroutines,
// each appending to its own tensor through the background flush pipeline,
// and verifies every value lands.
func TestParallelWritersDisjointTensors(t *testing.T) {
	ctx := context.Background()
	ds, store := newTestDataset(t)
	if err := ds.SetWriteOptions(WriteOptions{FlushWorkers: 8, MaxPending: 16}); err != nil {
		t.Fatal(err)
	}
	const writers, perWriter = 16, 64
	tensors := make([]*Tensor, writers)
	for w := 0; w < writers; w++ {
		tt, err := ds.CreateTensor(ctx, TensorSpec{
			Name: fmt.Sprintf("w%02d", w), Dtype: tensor.Int64, Bounds: smallBounds,
		})
		if err != nil {
			t.Fatal(err)
		}
		tensors[w] = tt
	}
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if err := tensors[w].Append(ctx, tensor.Scalar(tensor.Int64, float64(w*1000+i))); err != nil {
					errs <- fmt.Errorf("writer %d append %d: %w", w, i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := ds.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	// Reopen from storage: the flushed state must be complete and correct.
	reopened, err := Open(ctx, store)
	if err != nil {
		t.Fatal(err)
	}
	for w := 0; w < writers; w++ {
		tt := reopened.Tensor(fmt.Sprintf("w%02d", w))
		if tt == nil {
			t.Fatalf("tensor w%02d missing after reopen", w)
		}
		if got := tt.Len(); got != perWriter {
			t.Fatalf("tensor w%02d has %d rows, want %d", w, got, perWriter)
		}
		for _, i := range []uint64{0, perWriter / 2, perWriter - 1} {
			arr, err := tt.At(ctx, i)
			if err != nil {
				t.Fatal(err)
			}
			if v, _ := arr.Item(); v != float64(w*1000+int(i)) {
				t.Fatalf("w%02d[%d] = %v, want %d", w, i, v, w*1000+int(i))
			}
		}
	}
}

// TestParallelWritersSharedTensorsStayRowAligned: 16 goroutines stride one
// sample set into ONE shared tensor pair through row-atomic Dataset.Append
// over the background flush pipeline. After Flush and a reopen every sample
// is there exactly once, and index k holds the same writer's values in both
// tensors however the writers interleaved.
func TestParallelWritersSharedTensorsStayRowAligned(t *testing.T) {
	ctx := context.Background()
	ds, store := newTestDataset(t)
	if err := ds.SetWriteOptions(WriteOptions{FlushWorkers: 8, MaxPending: 16}); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"a", "b"} {
		if _, err := ds.CreateTensor(ctx, TensorSpec{Name: name, Dtype: tensor.Int64, Bounds: smallBounds}); err != nil {
			t.Fatal(err)
		}
	}
	const writers, total = 16, 512
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < total; i += writers {
				err := ds.Append(ctx, map[string]*tensor.NDArray{
					"a": tensor.Scalar(tensor.Int64, float64(i)),
					"b": tensor.Scalar(tensor.Int64, float64(10*i)),
				})
				if err != nil {
					errs <- fmt.Errorf("writer %d sample %d: %w", w, i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := ds.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	reopened, err := Open(ctx, store)
	if err != nil {
		t.Fatal(err)
	}
	a, b := reopened.Tensor("a"), reopened.Tensor("b")
	if a.Len() != total || b.Len() != total {
		t.Fatalf("%d/%d rows landed in a/b, want %d in each", a.Len(), b.Len(), total)
	}
	seen := make(map[int]bool, total)
	for k := uint64(0); k < total; k++ {
		av, err := a.At(ctx, k)
		if err != nil {
			t.Fatal(err)
		}
		bv, err := b.At(ctx, k)
		if err != nil {
			t.Fatal(err)
		}
		ai, _ := av.Item()
		bi, _ := bv.Item()
		if bi != 10*ai {
			t.Fatalf("row %d torn across tensors: a=%v b=%v", k, ai, bi)
		}
		if seen[int(ai)] {
			t.Fatalf("sample %v landed twice", ai)
		}
		seen[int(ai)] = true
	}
}

// TestConcurrentAppendAndFlush interleaves appends with dataset-wide
// flushes; Flush must act as a barrier (no torn chunk/encoder state) while
// appends continue around it.
func TestConcurrentAppendAndFlush(t *testing.T) {
	ctx := context.Background()
	ds, store := newTestDataset(t)
	if err := ds.SetWriteOptions(WriteOptions{FlushWorkers: 4}); err != nil {
		t.Fatal(err)
	}
	x, err := ds.CreateTensor(ctx, TensorSpec{Name: "x", Dtype: tensor.Int64, Bounds: smallBounds})
	if err != nil {
		t.Fatal(err)
	}
	const total = 256
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	done := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for i := 0; i < total; i++ {
			if err := x.Append(ctx, tensor.Scalar(tensor.Int64, float64(i))); err != nil {
				errs <- fmt.Errorf("append %d: %w", i, err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if err := ds.Flush(ctx); err != nil {
				errs <- fmt.Errorf("flush: %w", err)
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := ds.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	reopened, err := Open(ctx, store)
	if err != nil {
		t.Fatal(err)
	}
	rx := reopened.Tensor("x")
	if got := rx.Len(); got != total {
		t.Fatalf("reopened length %d, want %d", got, total)
	}
	for i := uint64(0); i < total; i++ {
		arr, err := rx.At(ctx, i)
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if v, _ := arr.Item(); v != float64(i) {
			t.Fatalf("x[%d] = %v", i, v)
		}
	}
}

// gatedStore blocks Puts on a release channel while gated, making
// cancellation-while-uploading deterministic. Uploads run on the
// pipeline's background context, so the gate — not a context — controls
// when the wire unblocks.
type gatedStore struct {
	storage.Provider
	mu      sync.Mutex
	gated   bool
	release chan struct{} // closed to unblock gated Puts
	signal  chan struct{} // receives one value per blocked Put
}

func (g *gatedStore) Put(ctx context.Context, key string, data []byte) error {
	g.mu.Lock()
	gated := g.gated
	g.mu.Unlock()
	if gated {
		select {
		case g.signal <- struct{}{}:
		default:
		}
		select {
		case <-g.release:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return g.Provider.Put(ctx, key, data)
}

// TestCancelMidIngestReopenable cancels an ingest while chunk uploads are
// stuck on the wire: the appender's context aborts its backpressure wait,
// a Flush whose own context expires surfaces an error without corrupting
// anything, and once the wire recovers a plain Flush retries the parked
// uploads — every acknowledged append survives, and a fresh Open sees a
// consistent dataset.
func TestCancelMidIngestReopenable(t *testing.T) {
	ctx := context.Background()
	mem := storage.NewMemory()
	gs := &gatedStore{Provider: mem, release: make(chan struct{}), signal: make(chan struct{}, 1)}
	ds, err := Create(ctx, gs, "cancel-test")
	if err != nil {
		t.Fatal(err)
	}
	x, err := ds.CreateTensor(ctx, TensorSpec{Name: "x", Dtype: tensor.Int64, Bounds: smallBounds})
	if err != nil {
		t.Fatal(err)
	}
	const flushed = 32
	for i := 0; i < flushed; i++ {
		if err := x.Append(ctx, tensor.Scalar(tensor.Int64, float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := ds.Flush(ctx); err != nil {
		t.Fatal(err)
	}

	// Switch to pipelined uploads and block the wire.
	if err := ds.SetWriteOptions(WriteOptions{FlushWorkers: 2, MaxPending: 4}); err != nil {
		t.Fatal(err)
	}
	gs.mu.Lock()
	gs.gated = true
	gs.mu.Unlock()

	// The appender fills the bounded pipeline (uploads can't progress) and
	// must abort its backpressure wait when its context is cancelled.
	ingestCtx, cancel := context.WithCancel(ctx)
	type result struct {
		appended int
		err      error
	}
	done := make(chan result, 1)
	go func() {
		n := 0
		for i := 0; i < 512; i++ {
			if err := x.Append(ingestCtx, tensor.Scalar(tensor.Int64, float64(flushed+i))); err != nil {
				done <- result{appended: n, err: err}
				return
			}
			n++
		}
		done <- result{appended: n}
	}()
	<-gs.signal // at least one chunk upload is blocked mid-flight
	cancel()
	res := <-done
	if res.err == nil {
		t.Fatal("append loop completed despite blocked pipeline and cancelled context")
	}
	if !errors.Is(res.err, context.Canceled) {
		t.Fatalf("append failed with %v, want context.Canceled", res.err)
	}
	if res.appended >= 512 {
		t.Fatalf("all %d appends succeeded; cancellation never bit", res.appended)
	}

	// A flush whose own context expires while the wire is stuck surfaces
	// an error instead of hanging.
	shortCtx, shortCancel := context.WithTimeout(ctx, 50*time.Millisecond)
	defer shortCancel()
	if err := ds.Flush(shortCtx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Flush with expired context = %v, want context.DeadlineExceeded", err)
	}

	// Wire recovers: a plain Flush redrives every parked upload, so no
	// acknowledged append is lost.
	close(gs.release)
	gs.mu.Lock()
	gs.gated = false
	gs.mu.Unlock()
	if err := ds.Flush(ctx); err != nil {
		t.Fatalf("Flush after recovery: %v", err)
	}

	// The in-memory handle is authoritative for how many rows were
	// recorded (an append surfacing a deferred flush error still commits
	// its row); the reopened dataset must match it exactly — nothing
	// recorded is lost, and rows stay dense and ordered.
	want := x.Len()
	if want < uint64(flushed+res.appended) {
		t.Fatalf("in-memory length %d below %d acknowledged appends", want, flushed+res.appended)
	}
	reopened, err := Open(ctx, gs)
	if err != nil {
		t.Fatalf("reopen after cancelled ingest: %v", err)
	}
	rx := reopened.Tensor("x")
	if rx == nil {
		t.Fatal("tensor x missing after reopen")
	}
	if got := rx.Len(); got != want {
		t.Fatalf("reopened length %d, want %d (every recorded append)", got, want)
	}
	for _, i := range []uint64{0, flushed - 1, flushed, want - 1} {
		arr, err := rx.At(ctx, i)
		if err != nil {
			t.Fatalf("read %d after reopen: %v", i, err)
		}
		if v, _ := arr.Item(); v != float64(i) {
			t.Fatalf("x[%d] = %v after reopen", i, v)
		}
	}
	// The reopened dataset is writable again.
	if err := rx.Append(ctx, tensor.Scalar(tensor.Int64, 9999)); err != nil {
		t.Fatalf("append after reopen: %v", err)
	}
	if err := reopened.Flush(ctx); err != nil {
		t.Fatalf("flush after reopen: %v", err)
	}
}
