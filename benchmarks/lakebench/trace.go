package main

import (
	"context"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed interval recorded by the benchmark's own code: around a
// call into a layer (open, epoch, query.scan, commit, ...) or around a call
// crossing one of the interposed storage boundaries (lru.Get, origin.Put,
// ...). Times are nanoseconds since the tracer was created.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"` // 0 = root, -1 = detached (no span in ctx)
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Key    string `json:"key,omitempty"`
	Bytes  int64  `json:"bytes,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced run: every method is a no-op, so call sites need no branches.
type tracer struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span
	next  int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

type spanKey struct{}

// A span's parent is another span's id, parentRoot for the benchmark's own
// top-level operations, or parentDetached for a storage call that arrived on
// a context carrying no span at all (the program detached it from its
// caller, as the flush pipeline does for background uploads).
const (
	parentRoot     = 0
	parentDetached = -1
)

func parentOf(ctx context.Context) int64 {
	if parent, ok := ctx.Value(spanKey{}).(int64); ok {
		return parent
	}
	return parentDetached
}

// start opens a span named name under whatever span ctx carries and returns
// a context carrying the new span plus the function that closes it.
func (t *tracer) start(ctx context.Context, name string) (context.Context, func()) {
	if t == nil {
		return ctx, func() {}
	}
	ctx, done := t.startKeyed(ctx, name, "")
	return ctx, func() { done(0) }
}

// startKeyed is start for storage-boundary spans, which also record the
// object key and the payload size known once the call returns.
func (t *tracer) startKeyed(ctx context.Context, name, key string) (context.Context, func(bytes int64)) {
	parent := parentOf(ctx)
	begin := time.Since(t.epoch)
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	return context.WithValue(ctx, spanKey{}, id), func(bytes int64) {
		end := time.Since(t.epoch)
		t.mu.Lock()
		t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: int64(begin), End: int64(end), Key: key, Bytes: bytes})
		t.mu.Unlock()
	}
}

// record adds a span whose interval the caller measured itself (the
// consumer's wait for each batch).
func (t *tracer) record(ctx context.Context, name string, begin, end time.Time) {
	if t == nil {
		return
	}
	parent := parentOf(ctx)
	t.mu.Lock()
	t.next++
	t.spans = append(t.spans, span{ID: t.next, Parent: parent, Name: name, Start: int64(begin.Sub(t.epoch)), End: int64(end.Sub(t.epoch))})
	t.mu.Unlock()
}

// rootContext returns a context whose spans hang off the trace root.
func (t *tracer) rootContext(ctx context.Context) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, int64(parentRoot))
}

// reset drops the spans recorded so far (the warm-up's).
func (t *tracer) reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = nil
	t.mu.Unlock()
}

// snapshot copies the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// named keeps the spans whose name starts with one of the prefixes.
func named(spans []span, prefixes ...string) []span {
	var out []span
	for _, s := range spans {
		for _, p := range prefixes {
			if strings.HasPrefix(s.Name, p) {
				out = append(out, s)
				break
			}
		}
	}
	return out
}

// union is the total length of the union of the spans' intervals, each
// clipped to [lo, hi].
func union(spans []span, lo, hi int64) time.Duration {
	sort.Slice(spans, func(a, b int) bool { return spans[a].Start < spans[b].Start })
	var total int64
	edge := lo
	for _, s := range spans {
		start, end := max(s.Start, edge), min(s.End, hi)
		if end > start {
			total += end - start
			edge = end
		}
	}
	return time.Duration(total)
}

// busy sums the spans' durations and measures the union of their
// intervals: busy/union is the mean number in flight while any was.
func busy(spans []span) (total, covered time.Duration, detached int) {
	if len(spans) == 0 {
		return 0, 0, 0
	}
	lo, hi := spans[0].Start, spans[0].End
	for _, s := range spans {
		total += time.Duration(s.End - s.Start)
		lo, hi = min(lo, s.Start), max(hi, s.End)
		if s.Parent == parentDetached {
			detached++
		}
	}
	return total, union(append([]span(nil), spans...), lo, hi), detached
}

// selfTime sums, over the spans whose name starts with prefix, each span's
// duration minus the part of its interval its child spans cover. A child
// that outlives its parent (an asynchronous prefetch) is only subtracted
// where the two overlap.
func selfTime(spans []span, prefix string) time.Duration {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent > 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	var self time.Duration
	for _, s := range named(spans, prefix) {
		self += time.Duration(s.End-s.Start) - union(children[s.ID], s.Start, s.End)
	}
	return self
}

// spanCost times the tracer's own bookkeeping: the cost of one start/done
// pair, used to estimate what share of the traced run was tracing.
func spanCost() time.Duration {
	t := newTracer()
	ctx := t.rootContext(context.Background())
	const n = 20000
	begin := time.Now()
	for i := 0; i < n; i++ {
		_, done := t.startKeyed(ctx, "calibrate", "k")
		done(0)
	}
	return time.Since(begin) / n
}

// write dumps the spans as one JSON document.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(struct {
		Spans []span `json:"spans"`
	}{t.snapshot()}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
