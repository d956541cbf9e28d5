package storage

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"
)

// ErrTransient marks a failure as retry-safe: a provider (or fault injector)
// that knows an error is a momentary origin hiccup — a 5xx, a dropped
// connection, a partial body — wraps it so IsRetryable reports true and a
// Retry layer re-attempts the operation. Permanent failures (ErrNotFound,
// malformed requests) and context errors must never carry this marker.
var ErrTransient = errors.New("storage: transient error")

// Transient wraps err so IsRetryable reports true for it. A nil err returns
// nil. The wrapped error still matches err via errors.Is/As.
func Transient(err error) error {
	if err == nil {
		return nil
	}
	return &transientError{err: err}
}

type transientError struct{ err error }

func (e *transientError) Error() string { return "storage: transient: " + e.err.Error() }

// Unwrap exposes the cause to errors.Is/As.
func (e *transientError) Unwrap() error { return e.err }

// Transient marks the error retry-safe for IsRetryable.
func (e *transientError) Transient() bool { return true }

// IsRetryable reports whether err is a transient failure that a Retry layer
// may safely re-attempt. Classification rules, in order:
//
//   - nil, context.Canceled and context.DeadlineExceeded are never retryable:
//     a caller that gave up must not have work re-issued on its behalf. (The
//     Retry wrapper itself distinguishes its own per-op timeout from the
//     caller's deadline by checking the parent context.)
//   - ErrNotFound is never retryable: a missing key is a stable fact, and
//     retrying it would turn every negative lookup into a backoff storm.
//   - Anything carrying ErrTransient in its chain, or implementing
//     interface{ Transient() bool } returning true, is retryable.
//
// Wrappers must preserve the chain (wrap with %w or return inner errors
// unchanged) for this classification to survive Sim/LRU/Counting.
func IsRetryable(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	if errors.Is(err, ErrNotFound) {
		return false
	}
	if errors.Is(err, ErrTransient) {
		return true
	}
	var t interface{ Transient() bool }
	if errors.As(err, &t) {
		return t.Transient()
	}
	return false
}

// Backoff computes capped exponential delays with deterministic seeded
// jitter: attempt k (1-based) waits Base<<(k-1) capped at Max, scaled into
// [1/2, 1) of that span by a hash of (Seed, attempt). Two Backoff values
// with the same fields produce identical schedules, so chaos runs are
// reproducible; different seeds de-synchronize concurrent retriers.
type Backoff struct {
	// Base is the first delay. Zero means 10ms.
	Base time.Duration
	// Max caps the exponential growth. Zero means 1s.
	Max time.Duration
	// Seed drives the deterministic jitter.
	Seed int64
}

// Delay returns the pause before re-attempt number attempt (1-based).
func (b Backoff) Delay(attempt int) time.Duration {
	base, max := b.Base, b.Max
	if base <= 0 {
		base = 10 * time.Millisecond
	}
	if max <= 0 {
		max = time.Second
	}
	if max < base {
		max = base
	}
	if attempt < 1 {
		attempt = 1
	}
	d := base
	for i := 1; i < attempt; i++ {
		d *= 2
		if d >= max || d <= 0 {
			d = max
			break
		}
	}
	if d > max {
		d = max
	}
	// Deterministic jitter in [d/2, d): same (Seed, attempt) -> same delay.
	h := splitmix64(uint64(b.Seed)<<16 ^ uint64(attempt))
	frac := float64(h>>11) / (1 << 53)
	return d/2 + time.Duration(frac*float64(d/2))
}

// splitmix64 is the SplitMix64 finalizer: a cheap, well-mixed 64-bit hash.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// RetryOptions configures a Retry wrapper.
type RetryOptions struct {
	// Attempts is the maximum tries per operation, including the first.
	// Zero means 4.
	Attempts int
	// Backoff shapes the inter-attempt delays.
	Backoff Backoff
	// OpTimeout bounds each individual attempt. When an attempt dies of
	// this deadline while the caller's own context is still live, the
	// failure counts as transient (a stalled origin connection) and is
	// retried. Zero means no per-attempt deadline — a black-holed origin
	// call then hangs until the caller's context expires.
	OpTimeout time.Duration
	// Budget caps the total number of re-attempts the wrapper will issue
	// over its lifetime, so a persistently failing origin degrades to
	// fail-fast instead of multiplying traffic. Zero means unlimited.
	Budget int64
}

func (o RetryOptions) withDefaults() RetryOptions {
	if o.Attempts <= 0 {
		o.Attempts = 4
	}
	return o
}

// RetryStats is a point-in-time copy of a Retry wrapper's counters.
type RetryStats struct {
	// Attempts counts every call issued to the inner provider, first tries
	// included.
	Attempts int64
	// Retries counts re-attempts only (Attempts minus logical operations).
	Retries int64
	// Exhausted counts operations that still failed after the last allowed
	// attempt.
	Exhausted int64
	// BudgetDenied counts retries that were skipped because the lifetime
	// retry budget ran out.
	BudgetDenied int64
}

// Retry wraps a provider with transient-failure recovery: every operation is
// re-attempted under capped exponential backoff while IsRetryable approves
// (or the failure was the wrapper's own per-attempt timeout), up to
// RetryOptions.Attempts tries and the lifetime budget. Context errors and
// ErrNotFound are returned immediately, and a context cancelled mid-backoff
// aborts the wait at once.
//
// Stack Retry *below* the read-coalescing cache (LRU's singleflight): a miss
// shared by N waiters then retries once on behalf of all of them, instead of
// each waiter observing the fault and re-issuing its own recovery — one
// transient fault costs one extra origin request, never N.
//
// All operations on the Provider contract are idempotent (whole-object puts,
// deletes, lookups), so re-attempting any of them is safe.
type Retry struct {
	passthrough
	opts RetryOptions

	attempts     atomic.Int64
	retries      atomic.Int64
	exhausted    atomic.Int64
	budgetDenied atomic.Int64
	budgetLeft   atomic.Int64 // meaningful only when opts.Budget > 0
}

// NewRetry wraps inner with the given retry policy.
func NewRetry(inner Provider, opts RetryOptions) *Retry {
	r := &Retry{passthrough: passthrough{inner}, opts: opts.withDefaults()}
	r.budgetLeft.Store(opts.Budget)
	return r
}

// Stats reports the wrapper's counters.
func (r *Retry) Stats() RetryStats {
	return RetryStats{
		Attempts:     r.attempts.Load(),
		Retries:      r.retries.Load(),
		Exhausted:    r.exhausted.Load(),
		BudgetDenied: r.budgetDenied.Load(),
	}
}

// takeBudget consumes one unit of the lifetime retry budget.
func (r *Retry) takeBudget() bool {
	if r.opts.Budget <= 0 {
		return true
	}
	for {
		left := r.budgetLeft.Load()
		if left <= 0 {
			return false
		}
		if r.budgetLeft.CompareAndSwap(left, left-1) {
			return true
		}
	}
}

// do runs op under the retry protocol. op receives the per-attempt context.
func (r *Retry) do(ctx context.Context, opName, key string, op func(context.Context) error) error {
	for attempt := 1; ; attempt++ {
		attemptCtx, cancel := ctx, context.CancelFunc(func() {})
		if r.opts.OpTimeout > 0 {
			attemptCtx, cancel = context.WithTimeout(ctx, r.opts.OpTimeout)
		}
		r.attempts.Add(1)
		err := op(attemptCtx)
		cancel()
		if err == nil {
			return nil
		}
		if cerr := ctx.Err(); cerr != nil {
			// The caller gave up (or its deadline passed); never retry on
			// its behalf, and surface its context error over the inner one,
			// which may be a fault that raced the cancel.
			return cerr
		}
		// Our own per-attempt deadline firing while the caller is still
		// live is a stalled origin call: transient by construction.
		ownTimeout := errors.Is(err, context.DeadlineExceeded)
		if !IsRetryable(err) && !ownTimeout {
			return err
		}
		if attempt >= r.opts.Attempts {
			r.exhausted.Add(1)
			return fmt.Errorf("storage: %s %q failed after %d attempts: %w", opName, key, attempt, err)
		}
		if !r.takeBudget() {
			r.budgetDenied.Add(1)
			return fmt.Errorf("storage: %s %q retry budget exhausted: %w", opName, key, err)
		}
		t := time.NewTimer(r.opts.Backoff.Delay(attempt))
		select {
		case <-t.C:
		case <-ctx.Done():
			// Cancelled mid-backoff: stop waiting immediately.
			t.Stop()
			return ctx.Err()
		}
		t.Stop()
		r.retries.Add(1)
	}
}

// retryValue runs one value-returning inner call under r.do. A failed
// operation returns the zero value, never a failed attempt's partial result.
func retryValue[T any](ctx context.Context, r *Retry, opName, key string, call func(context.Context) (T, error)) (T, error) {
	var out T
	err := r.do(ctx, opName, key, func(c context.Context) (err error) {
		out, err = call(c)
		return err
	})
	if err != nil {
		var zero T
		return zero, err
	}
	return out, nil
}

// Get implements Provider.
func (r *Retry) Get(ctx context.Context, key string) ([]byte, error) {
	return retryValue(ctx, r, "Get", key, func(c context.Context) ([]byte, error) {
		return r.inner.Get(c, key)
	})
}

// GetRanges implements BatchProvider. Recovery is incremental: ranges
// served before a mid-batch fault are kept, and each re-attempt re-issues
// only the still-missing ranges as one new batch — so one fault inside a
// coalesced request costs exactly one extra origin round trip, never a
// resend of bytes already received.
func (r *Retry) GetRanges(ctx context.Context, reqs []RangeReq) ([][]byte, error) {
	if len(reqs) == 0 {
		return nil, nil
	}
	out := make([][]byte, len(reqs))
	missing := make([]int, len(reqs))
	for i := range reqs {
		missing[i] = i
	}
	err := r.do(ctx, "GetRanges", fmt.Sprintf("batch[%d] %s…", len(reqs), reqs[0].Key), func(c context.Context) error {
		sub := make([]RangeReq, len(missing))
		for j, i := range missing {
			sub[j] = reqs[i]
		}
		res, err := GetRanges(c, r.inner, sub)
		still := missing[:0]
		for j, i := range missing {
			if j < len(res) && res[j] != nil {
				out[i] = res[j]
			} else {
				still = append(still, i)
			}
		}
		missing = still
		if err != nil {
			return err
		}
		if len(missing) > 0 {
			return fmt.Errorf("storage: batched get left %d ranges unserved: %w", len(missing), ErrTransient)
		}
		return nil
	})
	return out, err
}

// GetRange implements Provider.
func (r *Retry) GetRange(ctx context.Context, key string, offset, length int64) ([]byte, error) {
	return retryValue(ctx, r, "GetRange", key, func(c context.Context) ([]byte, error) {
		return r.inner.GetRange(c, key, offset, length)
	})
}

// Put implements Provider. Whole-object puts are idempotent, so a put whose
// response was lost re-runs safely.
func (r *Retry) Put(ctx context.Context, key string, data []byte) error {
	return r.do(ctx, "Put", key, func(c context.Context) error {
		return r.inner.Put(c, key, data)
	})
}

// Delete implements Provider.
func (r *Retry) Delete(ctx context.Context, key string) error {
	return r.do(ctx, "Delete", key, func(c context.Context) error {
		return r.inner.Delete(c, key)
	})
}

// Exists implements Provider.
func (r *Retry) Exists(ctx context.Context, key string) (bool, error) {
	return retryValue(ctx, r, "Exists", key, func(c context.Context) (bool, error) {
		return r.inner.Exists(c, key)
	})
}

// List implements Provider.
func (r *Retry) List(ctx context.Context, prefix string) ([]string, error) {
	return retryValue(ctx, r, "List", prefix, func(c context.Context) ([]string, error) {
		return r.inner.List(c, prefix)
	})
}

// Size implements Provider.
func (r *Retry) Size(ctx context.Context, key string) (int64, error) {
	return retryValue(ctx, r, "Size", key, func(c context.Context) (int64, error) {
		return r.inner.Size(c, key)
	})
}
