package core

import (
	"context"
	"runtime"
	"testing"
	"time"

	"repro/internal/storage"
	"repro/internal/tensor"
)

// TestFlushRetriesAreAttemptsPerUpload pins what a Retry layer under the
// dataset does for uploads: re-attempts of ONE upload, made by the uploader
// that owns the chunk. The provider fails exactly the first three Puts it sees and a
// single worker lane serializes uploads, so the first sealed chunk's upload
// meets all three faults whatever else is queued behind it: with three
// re-attempts its fourth try lands and no failure is ever visible; with two
// it parks after its third and the next Flush redrives it.
func TestFlushRetriesAreAttemptsPerUpload(t *testing.T) {
	for _, tc := range []struct {
		name    string
		retries int
		parks   bool
	}{
		{"retries cover the faults", 3, false},
		{"one retry short parks the chunk", 2, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx := context.Background()
			const rows = 40 // at least two sealed chunks of int64 scalars under smallBounds
			ds, tr, faulty := faultyDataset(t,
				storage.FaultConfig{Seed: 1, PutErrRate: 1, MaxFaults: 3},
				storage.RetryOptions{
					Attempts: tc.retries + 1,
					Backoff:  storage.Backoff{Base: time.Millisecond, Max: 2 * time.Millisecond, Seed: 1},
				})
			if err := ds.SetWriteOptions(WriteOptions{FlushWorkers: 1}); err != nil {
				t.Fatal(err)
			}
			goroutines := runtime.NumGoroutine()

			var appendErr error
			for i := 0; i < rows; i++ {
				if err := tr.Append(ctx, tensor.Scalar(tensor.Int64, float64(i))); err != nil {
					if !isDeferredFlush(err) {
						t.Fatalf("append %d: %v", i, err)
					}
					appendErr = err
				}
			}
			// The barrier alone, without Flush's redrive in front of it: what
			// the uploaders themselves achieved.
			drainErr := ds.flusher.drain(ctx)
			if got := faulty.Stats().Total(); got != 3 {
				t.Fatalf("%d faults injected, want exactly 3", got)
			}
			if tc.parks {
				if !storage.IsRetryable(drainErr) {
					t.Fatalf("drain = %v, want the retryable failure of the parked upload", drainErr)
				}
			} else if drainErr != nil || appendErr != nil {
				t.Fatalf("faults within the retry allowance surfaced: drain %v, append %v", drainErr, appendErr)
			}

			if err := ds.Flush(ctx); err != nil {
				t.Fatalf("flush: %v", err)
			}
			if got := faulty.Stats().Total(); got != 3 {
				t.Fatalf("%d faults after flush, want 3", got)
			}
			reopened, err := Open(ctx, faulty)
			if err != nil {
				t.Fatal(err)
			}
			if got := reopened.Tensor("x").Len(); got != rows {
				t.Fatalf("%d/%d rows durable", got, rows)
			}

			// Nothing outlives the barrier: every uploader — retrying or not —
			// has returned once Flush has. A goroutine that has just released
			// the barrier may still be unwinding, hence the short poll.
			deadline := time.Now().Add(2 * time.Second)
			for runtime.NumGoroutine() > goroutines {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines after flush, %d before the ingest", runtime.NumGoroutine(), goroutines)
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}
