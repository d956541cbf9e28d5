package storage

import (
	"context"
	"errors"
	"sync"
)

// Flight deduplicates concurrent calls by key: while one caller (the leader)
// executes fn, every other caller arriving with the same key blocks and
// shares the leader's result instead of issuing its own call. This is the
// read-coalescing layer of the §3.6 provider chain — when many dataloader
// workers miss on the same chunk at once, exactly one origin fetch happens.
//
// The zero value is ready to use. Flight is safe for concurrent use.
type Flight[V any] struct {
	mu    sync.Mutex
	calls map[string]*flightCall[V]
}

type flightCall[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// Do executes fn once per key across concurrent callers. The leader runs fn
// in its own goroutine context; followers block until the leader finishes or
// their own ctx is cancelled, whichever comes first. shared reports whether
// the returned value came from another caller's in-flight execution (i.e.
// this call was coalesced).
//
// A follower's cancellation does not abort the leader. If the leader itself
// fails, every follower observes the leader's error; callers that need
// isolation from a cancelled leader should retry when SharedCancellation
// reports the error came from the leader's context, not their own.
func (f *Flight[V]) Do(ctx context.Context, key string, fn func() (V, error)) (v V, shared bool, err error) {
	f.mu.Lock()
	if f.calls == nil {
		f.calls = make(map[string]*flightCall[V])
	}
	if c, ok := f.calls[key]; ok {
		f.mu.Unlock()
		select {
		case <-c.done:
			return c.val, true, c.err
		case <-ctx.Done():
			return v, true, ctx.Err()
		}
	}
	c := &flightCall[V]{done: make(chan struct{}), err: errFlightAbandoned}
	f.calls[key] = c
	f.mu.Unlock()

	// Cleanup runs even if fn panics or Goexits: the key is released and
	// followers observe errFlightAbandoned instead of blocking forever on a
	// done channel that never closes.
	defer func() {
		f.mu.Lock()
		delete(f.calls, key)
		f.mu.Unlock()
		close(c.done)
	}()
	c.val, c.err = fn()

	return c.val, false, c.err
}

// errFlightAbandoned is what followers observe when a leader's fn panicked
// or exited without returning.
var errFlightAbandoned = errors.New("storage: singleflight leader exited without a result")

// SharedCancellation reports whether a shared flight error is another
// caller's context cancellation rather than the given (still live) context's
// own: the signal that a follower should retry instead of failing.
func SharedCancellation(ctx context.Context, err error) bool {
	return err != nil && ctx.Err() == nil &&
		(errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded))
}

// Lead attempts to take non-blocking leadership of key: ok is false when a
// call for key is already in flight (its leader will serve any waiter). On
// success the caller MUST invoke finish exactly once with the result, which
// releases the key and wakes every follower that joined via Do in the
// meantime. This is how a batch prefetch registers many keys at once and
// delivers each key's bytes as they arrive, while on-demand readers
// coalesce onto the batch instead of issuing duplicate fetches.
func (f *Flight[V]) Lead(key string) (finish func(V, error), ok bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.calls == nil {
		f.calls = make(map[string]*flightCall[V])
	}
	if _, exists := f.calls[key]; exists {
		return nil, false
	}
	c := &flightCall[V]{done: make(chan struct{}), err: errFlightAbandoned}
	f.calls[key] = c
	return func(v V, err error) {
		c.val, c.err = v, err
		f.mu.Lock()
		delete(f.calls, key)
		f.mu.Unlock()
		close(c.done)
	}, true
}

// Inflight reports how many keys currently have an executing leader.
func (f *Flight[V]) Inflight() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.calls)
}
