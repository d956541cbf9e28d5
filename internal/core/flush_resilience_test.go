package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/storage"
	"repro/internal/tensor"
)

// The flush-pipeline resilience suite: run with -race. It covers the
// re-attempts a storage.Retry in the provider chain makes on behalf of the
// uploads, the sticky error clearing once every pending blob drains, and the
// interaction between automatic and manual recovery under a fault-injecting
// provider.

// faultyDataset builds a default-configured dataset over Retry → Faulty →
// Memory, so chunk uploads and publish Puts alike hit the faults and the
// retry policy. Setup (Create, CreateTensor) runs disarmed so only the write
// path under study sees faults.
func faultyDataset(t *testing.T, cfg storage.FaultConfig, retry storage.RetryOptions) (*Dataset, *Tensor, *storage.Faulty) {
	t.Helper()
	ctx := context.Background()
	faulty := storage.NewFaulty(storage.NewMemory(), cfg)
	faulty.SetArmed(false)
	ds, err := Create(ctx, storage.NewRetry(faulty, retry), "resilience")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := ds.CreateTensor(ctx, TensorSpec{Name: "x", Dtype: tensor.Int64, Bounds: smallBounds})
	if err != nil {
		t.Fatal(err)
	}
	faulty.SetArmed(true)
	return ds, tr, faulty
}

// appendRows appends n scalar rows, tolerating DeferredFlushError — the row
// is recorded and its chunk parked for redrive, which is the behavior under
// test.
func appendRows(t *testing.T, tr *Tensor, n int) {
	t.Helper()
	ctx := context.Background()
	for i := 0; i < n; i++ {
		err := tr.Append(ctx, tensor.Scalar(tensor.Int64, float64(i)))
		var dfe *DeferredFlushError
		if err != nil && !errors.As(err, &dfe) {
			t.Fatalf("append %d: %v", i, err)
		}
	}
}

// retryFlush drives Flush until it succeeds, failing the test on a
// non-transient error. Failures that outlast the retry policy park their
// chunks (or fail the publish), so individual Flush calls may legitimately
// fail.
func retryFlush(t *testing.T, ds *Dataset, attempts int) {
	t.Helper()
	ctx := context.Background()
	var err error
	for i := 0; i < attempts; i++ {
		if err = ds.Flush(ctx); err == nil {
			return
		}
		if !storage.IsRetryable(err) && !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("flush failed non-transiently: %v", err)
		}
	}
	t.Fatalf("flush still failing after %d attempts: %v", attempts, err)
}

// TestFlushAutoRedriveRecoversParkedUploads ingests through a pipeline whose
// Puts fail 30% of the time: parked chunks must be redriven automatically
// under backoff, Flush must converge, and every row must land durably.
func TestFlushAutoRedriveRecoversParkedUploads(t *testing.T) {
	ctx := context.Background()
	const rows = 300
	ds, tr, faulty := faultyDataset(t,
		storage.FaultConfig{Seed: 11, PutErrRate: 0.3},
		storage.RetryOptions{
			Attempts: 17,
			Backoff:  storage.Backoff{Base: time.Millisecond, Max: 10 * time.Millisecond, Seed: 11},
		})
	appendRows(t, tr, rows)
	retryFlush(t, ds, 32)
	if faulty.Stats().Total() == 0 {
		t.Fatal("fault schedule injected nothing; the test exercised only the happy path")
	}

	// Reopen from storage (disarmed) and verify every row is durable.
	faulty.SetArmed(false)
	reopened, err := Open(ctx, faulty)
	if err != nil {
		t.Fatal(err)
	}
	rx := reopened.Tensor("x")
	if rx == nil {
		t.Fatal("tensor missing after reopen")
	}
	if got := rx.Len(); got != rows {
		t.Fatalf("%d/%d rows durable after faulty ingest", got, rows)
	}
	for _, i := range []uint64{0, rows / 2, rows - 1} {
		arr, err := rx.At(ctx, i)
		if err != nil {
			t.Fatalf("row %d: %v", i, err)
		}
		v, _ := arr.Item()
		if int64(v) != int64(i) {
			t.Fatalf("row %d = %v", i, v)
		}
	}
}

// TestFlushStickyErrorClearsAfterRecovery asserts the bugfix: once a failed
// upload has been redriven successfully and no blobs are pending, the
// pipeline must stop reporting the stale error — a recovered dataset flushes
// clean.
func TestFlushStickyErrorClearsAfterRecovery(t *testing.T) {
	ctx := context.Background()
	// Exactly one Put fault: the first sealed chunk's upload fails and
	// parks; everything afterwards succeeds.
	ds, tr, _ := faultyDataset(t,
		storage.FaultConfig{Seed: 1, PutErrRate: 1, MaxFaults: 1},
		storage.RetryOptions{
			Attempts: 9,
			Backoff:  storage.Backoff{Base: time.Millisecond, Max: 5 * time.Millisecond, Seed: 1},
		})
	appendRows(t, tr, 100)
	retryFlush(t, ds, 8)

	// The pipeline recovered; later flushes must not resurrect the old
	// failure (the sticky error is cleared once pending drained).
	for i := 0; i < 3; i++ {
		if err := ds.Flush(ctx); err != nil {
			t.Fatalf("flush %d after recovery: %v", i, err)
		}
	}
}

// TestFlushManualRedriveTakesOverAutoRetry races a manual Flush against the
// pipeline's pending automatic redrive timer: the manual path must take over
// cleanly (cancelling the timer, not double-driving uploads) and still land
// every row.
func TestFlushManualRedriveTakesOverAutoRetry(t *testing.T) {
	ctx := context.Background()
	const rows = 200
	ds, tr, faulty := faultyDataset(t,
		storage.FaultConfig{Seed: 23, PutErrRate: 0.5},
		storage.RetryOptions{
			Attempts: 17,
			// Long backoff: the auto-redrive timer is almost always pending
			// when the manual Flush arrives, maximizing the takeover window.
			Backoff: storage.Backoff{Base: 50 * time.Millisecond, Max: 100 * time.Millisecond, Seed: 23},
		})
	appendRows(t, tr, rows)
	retryFlush(t, ds, 64)

	faulty.SetArmed(false)
	reopened, err := Open(ctx, faulty)
	if err != nil {
		t.Fatal(err)
	}
	if got := reopened.Tensor("x").Len(); got != rows {
		t.Fatalf("%d/%d rows durable after manual/auto redrive race", got, rows)
	}
}

// TestFlushUploadTimeoutParksStalledPuts covers the black-hole failure mode:
// a stalled Put must die of the chain's OpTimeout (uploads run on a
// pipeline-owned context) and be re-attempted — the appending caller is never
// stuck. That holds for chunk uploads and for the root Put that publishes a
// flush, which goes through the same Retry layer.
func TestFlushUploadTimeoutParksStalledPuts(t *testing.T) {
	ctx := context.Background()
	const rows = 120
	retry := storage.RetryOptions{
		Attempts:  17,
		Backoff:   storage.Backoff{Base: time.Millisecond, Max: 10 * time.Millisecond, Seed: 5},
		OpTimeout: 20 * time.Millisecond,
	}
	durable := func(t *testing.T, faulty *storage.Faulty) {
		t.Helper()
		faulty.SetArmed(false)
		reopened, err := Open(ctx, faulty)
		if err != nil {
			t.Fatal(err)
		}
		if got := reopened.Tensor("x").Len(); got != rows {
			t.Fatalf("%d/%d rows durable after stalled uploads", got, rows)
		}
	}

	t.Run("chunk uploads", func(t *testing.T) {
		// Seed 20 stalls Puts 2, 4, 5 and 6 of the schedule.
		ds, tr, faulty := faultyDataset(t, storage.FaultConfig{Seed: 20, StallRate: 0.2, MaxFaults: 4}, retry)
		appendRows(t, tr, rows)
		retryFlush(t, ds, 32)
		if faulty.Stats().Stalls == 0 {
			t.Fatal("no stalls injected; the timeout path was not exercised")
		}
		durable(t, faulty)
	})

	t.Run("publish puts", func(t *testing.T) {
		// Everything lands fault-free, then a flush that seals nothing: its
		// only Puts are the publish pair, and the first two attempts stall.
		ds, tr, faulty := faultyDataset(t, storage.FaultConfig{Seed: 1, StallRate: 1, MaxFaults: 2}, retry)
		faulty.SetArmed(false)
		appendRows(t, tr, rows)
		if err := ds.Flush(ctx); err != nil {
			t.Fatal(err)
		}
		faulty.SetArmed(true)
		if err := ds.Flush(ctx); err != nil {
			t.Fatalf("flush through stalled publish Puts: %v", err)
		}
		if got := faulty.Stats().Stalls; got != 2 {
			t.Fatalf("%d stalls injected, want the 2 the publish Puts met", got)
		}
		if got := ds.store.(*storage.Retry).Stats().Retries; got != 2 {
			t.Fatalf("%d retries, want one per stalled publish attempt", got)
		}
		durable(t, faulty)
	})
}

// TestFlushNonRetryableErrorStaysManual asserts the classification boundary:
// a permanent upload failure must NOT be re-attempted automatically (which
// would hammer a broken provider); it stays parked until a manual Flush
// redrives it.
func TestFlushNonRetryableErrorStaysManual(t *testing.T) {
	ctx := context.Background()
	// Fail exactly one Put with a permanent (non-transient) error, under a
	// Retry layer that would re-attempt a transient one.
	mem := storage.NewMemory()
	perm := &failNthPut{inner: mem, failOn: 1, err: errors.New("permanent: access denied")}
	ds, err := Create(ctx, storage.NewRetry(perm, storage.RetryOptions{
		Attempts: 9,
		Backoff:  storage.Backoff{Base: time.Millisecond, Max: 2 * time.Millisecond},
	}), "manual")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := ds.CreateTensor(ctx, TensorSpec{Name: "x", Dtype: tensor.Int64, Bounds: smallBounds})
	if err != nil {
		t.Fatal(err)
	}
	perm.arm()
	appendRows(t, tr, 100)

	// Once every uploader has returned, the barrier reports the permanent
	// error and the key it hit was Put exactly once: nothing retried it.
	if err := ds.flusher.drain(ctx); err == nil || storage.IsRetryable(err) {
		t.Fatalf("drain = %v, want the permanent failure", err)
	}
	if key, n := perm.failedPuts(); n != 1 {
		t.Fatalf("%q saw %d Puts after its permanent failure, want only the failed one", key, n)
	}
	// The manual path clears the sticky error and redrives.
	if err := ds.Flush(ctx); err != nil {
		t.Fatalf("manual flush after permanent fault: %v", err)
	}
	reopened, err := Open(ctx, mem)
	if err != nil {
		t.Fatal(err)
	}
	if got := reopened.Tensor("x").Len(); got != 100 {
		t.Fatalf("%d/100 rows durable", got)
	}
}

// TestFlushFailedUploadLosesNoRows: one transient failure of one chunk Put,
// on a handle nobody configured and under a one-attempt Retry layer (no
// re-attempts), costs a Flush retry and nothing else. No append reports more
// than a deferred error, Flush converges within two calls, and all 40 rows
// read back on the handle and after reopen, with fsck clean. The chunk that meets the fault is either
// the first armed Put (sealed mid-append) or the one the Flush itself seals,
// whose failure the Flush must report.
func TestFlushFailedUploadLosesNoRows(t *testing.T) {
	for _, tc := range []struct {
		name string
		// before rows are appended fault-free and flushed before arming.
		before     int
		flushFails bool
	}{
		{"sealed mid-append", 0, false},
		{"sealed by flush", 32, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx := context.Background()
			const rows = 40
			ds, tr, faulty := faultyDataset(t, storage.FaultConfig{Seed: 1, PutErrRate: 1, MaxFaults: 1}, storage.RetryOptions{Attempts: 1})
			faulty.SetArmed(false)
			appendRows(t, tr, tc.before)
			if err := ds.Flush(ctx); err != nil {
				t.Fatal(err)
			}
			faulty.SetArmed(true)
			for i := tc.before; i < rows; i++ {
				if err := tr.Append(ctx, tensor.Scalar(tensor.Int64, float64(i))); err != nil && !isDeferredFlush(err) {
					t.Fatalf("append %d: %v", i, err)
				}
			}
			err := ds.Flush(ctx)
			if err != nil && !storage.IsRetryable(err) {
				t.Fatalf("flush: %v", err)
			}
			if tc.flushFails && err == nil {
				t.Fatal("the flush that sealed the failing chunk reported nothing")
			}
			if err != nil {
				if err := ds.Flush(ctx); err != nil {
					t.Fatalf("second flush: %v", err)
				}
			}
			if got := faulty.Stats().Total(); got != 1 {
				t.Fatalf("%d faults injected, want exactly 1", got)
			}

			faulty.SetArmed(false)
			for name, h := range map[string]*Dataset{"handle": ds, "reopened": mustOpen(t, faulty)} {
				x := h.Tensor("x")
				if got := x.Len(); got != rows {
					t.Fatalf("%s: %d/%d rows", name, got, rows)
				}
				for i := uint64(0); i < rows; i++ {
					arr, err := x.At(ctx, i)
					if err != nil {
						t.Fatalf("%s: row %d: %v", name, i, err)
					}
					if v, _ := arr.Item(); int64(v) != int64(i) {
						t.Fatalf("%s: row %d = %v", name, i, v)
					}
				}
			}
			if rep, err := Fsck(ctx, faulty, FsckOptions{}); err != nil || len(rep.Issues) != 0 {
				t.Fatalf("fsck: %v\n%s", err, rep.Format())
			}
		})
	}
}

// TestFlushSliceReadsParkedChunk: a sealed chunk whose upload failed stays in
// the pipeline's pending map, and Slice's byte-range fast path must read it
// from there like At does — before any Flush, on a handle nobody configured.
func TestFlushSliceReadsParkedChunk(t *testing.T) {
	ctx := context.Background()
	const rows, width = 20, 4
	perm := &failNthPut{inner: storage.NewMemory(), failOn: 1, err: errors.New("permanent: access denied")}
	ds, err := Create(ctx, perm, "slice")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := ds.CreateTensor(ctx, TensorSpec{Name: "x", Dtype: tensor.Int64, Bounds: smallBounds})
	if err != nil {
		t.Fatal(err)
	}
	perm.arm()
	for i := 0; i < rows; i++ {
		row, _ := tensor.FromInt64s(tensor.Int64, []int{width}, []int64{int64(i * width), int64(i*width + 1), int64(i*width + 2), int64(i*width + 3)})
		if err := tr.Append(ctx, row); err != nil && !isDeferredFlush(err) {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	// A permanent failure is never re-attempted automatically: once the
	// uploaders return, one sealed chunk is parked and nowhere in the store.
	if err := ds.flusher.drain(ctx); err == nil {
		t.Fatal("no upload failed; nothing was parked")
	}
	if _, n := perm.failedPuts(); n != 1 {
		t.Fatalf("the failed key saw %d Puts, want 1", n)
	}

	check := func(when string) {
		t.Helper()
		for i := 0; i < rows; i++ {
			got, err := tr.Slice(ctx, uint64(i), []tensor.Range{{Start: 1, Stop: 3}})
			if err != nil {
				t.Fatalf("%s: Slice row %d: %v", when, i, err)
			}
			if v := got.Float64s(); len(v) != 2 || int64(v[0]) != int64(i*width+1) || int64(v[1]) != int64(i*width+2) {
				t.Fatalf("%s: row %d[1:3] = %v", when, i, v)
			}
		}
	}
	check("parked")
	if err := ds.Flush(ctx); err != nil {
		t.Fatalf("manual flush after permanent fault: %v", err)
	}
	check("flushed")
}

// failNthPut fails the n-th armed Put with a fixed (non-transient) error and
// counts the Puts each key receives.
type failNthPut struct {
	inner  storage.Provider
	failOn int64
	err    error

	armed atomic.Bool
	seen  atomic.Int64

	mu     sync.Mutex
	failed string         // the key the fault hit
	puts   map[string]int // Puts per key, the failed one included
}

func (p *failNthPut) arm() { p.armed.Store(true) }

// failedPuts reports the key the fault hit and how many Puts it received.
func (p *failNthPut) failedPuts() (string, int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.failed, p.puts[p.failed]
}

func (p *failNthPut) Put(ctx context.Context, key string, data []byte) error {
	p.mu.Lock()
	if p.puts == nil {
		p.puts = map[string]int{}
	}
	p.puts[key]++
	fail := p.armed.Load() && p.seen.Add(1) == p.failOn
	if fail {
		p.failed = key
	}
	p.mu.Unlock()
	if fail {
		return fmt.Errorf("put %q: %w", key, p.err)
	}
	return p.inner.Put(ctx, key, data)
}
func (p *failNthPut) Get(ctx context.Context, key string) ([]byte, error) {
	return p.inner.Get(ctx, key)
}

func (p *failNthPut) GetRange(ctx context.Context, key string, offset, length int64) ([]byte, error) {
	return p.inner.GetRange(ctx, key, offset, length)
}

func (p *failNthPut) Delete(ctx context.Context, key string) error { return p.inner.Delete(ctx, key) }

func (p *failNthPut) Exists(ctx context.Context, key string) (bool, error) {
	return p.inner.Exists(ctx, key)
}

func (p *failNthPut) List(ctx context.Context, prefix string) ([]string, error) {
	return p.inner.List(ctx, prefix)
}

func (p *failNthPut) Size(ctx context.Context, key string) (int64, error) {
	return p.inner.Size(ctx, key)
}

// callerValue tags the context of whoever enqueued or redrove an upload.
type callerValue struct{}

// valueRecorder holds every chunk Put until hold is closed, then records the
// caller value and whether the context it arrived on was already cancelled.
// The first chunk Put fails, so one upload is parked and redriven.
type valueRecorder struct {
	storage.Provider
	hold chan struct{}

	mu        sync.Mutex
	seen      map[string][]any // per chunk key, the caller value of each Put
	cancelled int
}

func (r *valueRecorder) Put(ctx context.Context, key string, data []byte) error {
	if !strings.Contains(key, "/chunks/") {
		return r.Provider.Put(ctx, key, data)
	}
	<-r.hold
	r.mu.Lock()
	first := len(r.seen) == 0
	r.seen[key] = append(r.seen[key], ctx.Value(callerValue{}))
	if ctx.Err() != nil {
		r.cancelled++
	}
	r.mu.Unlock()
	if first {
		return errors.New("injected: the first chunk Put fails")
	}
	return r.Provider.Put(ctx, key, data)
}

// TestUploadsKeepCallerValuesNotCancellation: a chunk upload runs on its
// enqueuing caller's context values, so a trace span follows it, but not on
// its cancellation — the appends' context is cancelled while every upload is
// still held, and each lands anyway. A parked upload takes the values of the
// Flush that redrives it.
func TestUploadsKeepCallerValuesNotCancellation(t *testing.T) {
	bg := context.Background()
	rec := &valueRecorder{Provider: storage.NewMemory(), hold: make(chan struct{}), seen: map[string][]any{}}
	ds, err := Create(bg, rec, "values")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := ds.CreateTensor(bg, TensorSpec{Name: "x", Dtype: tensor.Int64, Bounds: smallBounds})
	if err != nil {
		t.Fatal(err)
	}
	const rows = 40 // a few sealed chunks, fewer than the pipeline's slots
	ingest, cancel := context.WithCancel(context.WithValue(bg, callerValue{}, "ingest"))
	for i := 0; i < rows; i++ {
		if err := tr.Append(ingest, tensor.Scalar(tensor.Int64, float64(i))); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	ds.flusher.mu.Lock()
	enqueued := len(ds.flusher.pending)
	ds.flusher.mu.Unlock()
	if enqueued == 0 {
		t.Fatal("the appends sealed no chunk")
	}
	cancel()
	close(rec.hold)
	if err := ds.flusher.drain(bg); err == nil {
		t.Fatal("the injected upload failure did not surface")
	}
	if err := ds.Flush(context.WithValue(bg, callerValue{}, "flush")); err != nil {
		t.Fatal(err)
	}

	rec.mu.Lock()
	defer rec.mu.Unlock()
	if rec.cancelled != 0 {
		t.Fatalf("%d uploads ran on a cancelled context", rec.cancelled)
	}
	fromIngest, redriven := 0, 0
	for key, values := range rec.seen {
		switch fmt.Sprint(values) {
		case "[ingest]":
			fromIngest++
		case "[ingest flush]":
			redriven++
		case "[flush]": // sealed by the Flush itself
		default:
			t.Fatalf("%s: Puts carried caller values %v", key, values)
		}
	}
	if fromIngest+redriven != enqueued || redriven != 1 {
		t.Fatalf("%d appended chunks landed on the appends' values and %d redriven on the Flush's; want %d and 1",
			fromIngest, redriven, enqueued-1)
	}
	if back := mustOpen(t, rec.Provider); back.Tensor("x").Len() != rows {
		t.Fatalf("%d/%d rows durable", back.Tensor("x").Len(), rows)
	}
}
