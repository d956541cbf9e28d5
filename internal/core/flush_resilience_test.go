package core

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/storage"
	"repro/internal/tensor"
)

// The flush-pipeline resilience suite: run with -race. It covers the
// automatic redrive of parked uploads (WriteOptions.FlushRetries), the
// sticky error clearing once every pending blob drains, and the interaction
// between automatic and manual recovery under a fault-injecting provider.

// faultyDataset builds a dataset whose chunk uploads hit a Faulty provider.
// Setup (Create, CreateTensor) runs disarmed so only the write path under
// study sees faults.
func faultyDataset(t *testing.T, cfg storage.FaultConfig, opts WriteOptions) (*Dataset, *Tensor, *storage.Faulty) {
	t.Helper()
	ctx := context.Background()
	faulty := storage.NewFaulty(storage.NewMemory(), cfg)
	faulty.SetArmed(false)
	ds, err := Create(ctx, faulty, "resilience")
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.SetWriteOptions(opts); err != nil {
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
// non-transient error. The faulty provider also faults metadata Puts (which
// bypass the pipeline), so individual Flush calls may legitimately fail.
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
		WriteOptions{
			FlushWorkers: 4, MaxPending: 8, FlushRetries: 16,
			FlushBackoff: storage.Backoff{Base: time.Millisecond, Max: 10 * time.Millisecond, Seed: 11},
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
		WriteOptions{
			FlushWorkers: 2, MaxPending: 4, FlushRetries: 8,
			FlushBackoff: storage.Backoff{Base: time.Millisecond, Max: 5 * time.Millisecond, Seed: 1},
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
	ds, tr, _ := faultyDataset(t,
		storage.FaultConfig{Seed: 23, PutErrRate: 0.5},
		WriteOptions{
			FlushWorkers: 4, MaxPending: 8, FlushRetries: 16,
			// Long backoff: the auto-redrive timer is almost always pending
			// when the manual Flush arrives, maximizing the takeover window.
			FlushBackoff: storage.Backoff{Base: 50 * time.Millisecond, Max: 100 * time.Millisecond, Seed: 23},
		})
	appendRows(t, tr, rows)
	retryFlush(t, ds, 64)

	faulty := ds.store.(*storage.Faulty)
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
// a stalled background Put must die of WriteOptions.UploadTimeout (uploads
// run on a pipeline-owned context), park its chunk, and be recovered by the
// automatic redrive — the appending caller is never stuck.
func TestFlushUploadTimeoutParksStalledPuts(t *testing.T) {
	ctx := context.Background()
	const rows = 120
	// Seed 20 stalls Puts 2, 4, 5 and 6 of the schedule: all four faults are
	// spent on background chunk uploads — the only Puts UploadTimeout covers —
	// before the flush's two inline publish Puts (root, dataset.json), which
	// a stall would hang on the test's deadline-free context.
	ds, tr, faulty := faultyDataset(t,
		storage.FaultConfig{Seed: 20, StallRate: 0.2, MaxFaults: 4},
		WriteOptions{
			FlushWorkers: 4, MaxPending: 8,
			UploadTimeout: 20 * time.Millisecond,
			FlushRetries:  16,
			FlushBackoff:  storage.Backoff{Base: time.Millisecond, Max: 10 * time.Millisecond, Seed: 5},
		})
	appendRows(t, tr, rows)
	retryFlush(t, ds, 32)
	if faulty.Stats().Stalls == 0 {
		t.Fatal("no stalls injected; the timeout path was not exercised")
	}

	faulty.SetArmed(false)
	reopened, err := Open(ctx, faulty)
	if err != nil {
		t.Fatal(err)
	}
	if got := reopened.Tensor("x").Len(); got != rows {
		t.Fatalf("%d/%d rows durable after stalled uploads", got, rows)
	}
}

// TestFlushNonRetryableErrorStaysManual asserts the classification boundary:
// a permanent upload failure must NOT trigger automatic redrive (which would
// hammer a broken provider); it stays parked until a manual Flush redrives
// it.
func TestFlushNonRetryableErrorStaysManual(t *testing.T) {
	ctx := context.Background()
	// Flaky fails exactly one Put with a permanent (non-transient) error.
	// Flaky's counter covers read-path ops only, so wrap Puts by hand.
	mem := storage.NewMemory()
	perm := &failNthPut{inner: mem, failOn: 1, err: errors.New("permanent: access denied")}
	ds, err := Create(ctx, perm, "manual")
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.SetWriteOptions(WriteOptions{
		FlushWorkers: 2, MaxPending: 4, FlushRetries: 8,
		FlushBackoff: storage.Backoff{Base: time.Millisecond, Max: 2 * time.Millisecond},
	}); err != nil {
		t.Fatal(err)
	}
	tr, err := ds.CreateTensor(ctx, TensorSpec{Name: "x", Dtype: tensor.Int64, Bounds: smallBounds})
	if err != nil {
		t.Fatal(err)
	}
	perm.arm()
	appendRows(t, tr, 100)

	// Give any (wrong) automatic redrive time to fire, then flush manually:
	// the manual path clears the sticky error and redrives.
	time.Sleep(30 * time.Millisecond)
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

// failNthPut fails the n-th armed Put with a fixed (non-transient) error.
type failNthPut struct {
	inner  storage.Provider
	failOn int64
	err    error

	armed atomic.Bool
	seen  atomic.Int64
}

func (p *failNthPut) arm() { p.armed.Store(true) }

func (p *failNthPut) Put(ctx context.Context, key string, data []byte) error {
	if p.armed.Load() && p.seen.Add(1) == p.failOn {
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
