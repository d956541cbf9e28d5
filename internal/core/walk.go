package core

import (
	"context"
	"errors"
	"math"
	"sync"
	"sync/atomic"
)

// Oversubscribe is how many steps a walk's consumers cut per worker on
// average (TQL partitions, dataloader chunk jobs): more steps smooth out skew
// in per-step cost (compressed chunks, cache hits vs misses, a hot chunk's
// media decodes) at slightly more scheduling overhead.
const Oversubscribe = 4

// ErrWorkerDied fails the step a Walk worker was running when its goroutine
// ended without returning from the step: the step, or user code it calls,
// ran runtime.Goexit, as t.Fatal does.
var ErrWorkerDied = errors.New("core: walk worker died mid-step")

// Walk is the ordered parallel walk under the TQL scan (§4.4), the
// dataloader (§4.6) and transforms (§4.1.2). steps hands out steps in order
// on the caller's goroutine, calling yield once per step; it stops when
// yield returns false. workers goroutines run the steps, each through the
// run function worker builds once on that goroutine (its per-worker state:
// ScanReaders, an arena) and release, when non-nil, once the goroutine
// ends. run writes the step's result into res. The caller's goroutine passes
// commit each step's result and error in step order, holding at most window
// steps handed out and not yet committed.
//
// The contract:
//   - Steps are claimed in index order, and none past the lowest failed
//     step starts once that failure is recorded.
//   - Every step before the first failing one commits; none after it does.
//     The failing step's partial result is committed with its error, which
//     commit maps to the error the walk returns (commit returning nil keeps
//     the step's own error). The results and the error are therefore those
//     of a 1-worker walk at any worker count.
//   - A worker whose goroutine ends mid-step fails the step with
//     ErrWorkerDied.
//   - A commit error ends the walk with that error; a cancelled ctx ends it
//     with ctx's error.
//
// On every exit Walk cancels the context its workers and steps read under
// and returns only after every worker has exited, so the caller may then
// release whatever the steps claimed (StripPlan.Disown, cache pins).
func Walk[S, R any](ctx context.Context, workers, window int,
	steps func(ctx context.Context, yield func(S) bool),
	worker func(ctx context.Context) (run func(step S, res *R) error, release func()),
	commit func(step S, res R, err error) error) error {
	ctx, cancel := context.WithCancel(ctx)
	// The queue has room for the whole window, so handing a step out never
	// blocks: it holds only pending steps.
	w := &walk[S, R]{queue: make(chan *walkStep[S, R], max(window, 1))}
	w.failed.Store(math.MaxInt64)
	var wg sync.WaitGroup
	defer wg.Wait()
	defer close(w.queue)
	defer cancel()
	for range max(min(workers, window), 1) {
		wg.Add(1)
		go w.work(ctx, &wg, worker)
	}

	var pending []*walkStep[S, R] // handed out, not yet committed, in order
	var err error
	// commitHead waits for the oldest pending step and commits it; false
	// ends the walk with err set.
	commitHead := func() bool {
		st := pending[0]
		pending = pending[1:]
		select {
		case <-st.done:
		case <-ctx.Done():
			err = ctx.Err()
			return false
		}
		if cerr := commit(st.step, st.res, st.err); cerr != nil {
			err = cerr
		} else {
			err = st.err
		}
		return err == nil
	}
	n := int64(0)
	steps(ctx, func(s S) bool {
		for len(pending) >= cap(w.queue) {
			if !commitHead() {
				return false
			}
		}
		if n > w.failed.Load() {
			return false // the walk ends at a lower step
		}
		st := &walkStep[S, R]{i: n, step: s, done: make(chan struct{})}
		n++
		w.queue <- st
		pending = append(pending, st)
		return true
	})
	for err == nil && len(pending) > 0 && commitHead() {
	}
	return err
}

// walk is the state a Walk's workers share.
type walk[S, R any] struct {
	queue chan *walkStep[S, R]
	// failed is the lowest step index that failed, MaxInt64 while none has.
	failed atomic.Int64
}

// walkStep is one handed-out step: its result and error are ready once done
// is closed.
type walkStep[S, R any] struct {
	i    int64
	step S
	res  R
	err  error
	done chan struct{}
}

// work is one worker: it runs queued steps in claim order until the queue
// closes, skipping those past a recorded failure and failing, unrun, those
// it claims once the walk's context has ended.
func (w *walk[S, R]) work(ctx context.Context, wg *sync.WaitGroup, worker func(ctx context.Context) (func(S, *R) error, func())) {
	defer wg.Done()
	run, release := worker(ctx)
	if release != nil {
		defer release()
	}
	// A worker that dies holding a step still fails it, or the walk would
	// wait on it forever.
	var held *walkStep[S, R]
	defer func() {
		if held != nil {
			held.err = ErrWorkerDied
			w.fail(held.i)
			close(held.done)
		}
	}()
	for st := range w.queue {
		if st.i > w.failed.Load() {
			close(st.done) // never committed: the walk ends at a lower step
			continue
		}
		held = st
		if st.err = ctx.Err(); st.err == nil {
			st.err = run(st.step, &st.res)
		}
		held = nil
		if st.err != nil {
			w.fail(st.i)
		}
		close(st.done)
	}
}

// fail records step i as failed, keeping the lowest.
func (w *walk[S, R]) fail(i int64) {
	for f := w.failed.Load(); i < f && !w.failed.CompareAndSwap(f, i); f = w.failed.Load() {
	}
}
