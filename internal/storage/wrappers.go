package storage

import (
	"context"
	"sync"
	"sync/atomic"
)

// Counting wraps a provider and tallies operations and bytes moved, used by
// benchmarks to report request counts alongside wall time. All counters are
// atomic: read them with Snapshot and zero them with Reset, so a benchmark
// can reset between phases while readers are still in flight without racing.
type Counting struct {
	passthrough

	gets, rangeGets, batchGets, batchRanges atomic.Int64
	puts, deletes, lists                    atomic.Int64
	bytesRead, bytesWritten                 atomic.Int64
}

// NewCounting wraps inner with operation counters.
func NewCounting(inner Provider) *Counting { return &Counting{passthrough: passthrough{inner}} }

// CountingStats is a point-in-time copy of a Counting wrapper's counters.
type CountingStats struct {
	// Gets, RangeGets, Puts, Deletes and Lists count operations by kind.
	Gets, RangeGets, Puts, Deletes, Lists int64
	// BatchGets counts GetRanges calls — each is ONE origin request no
	// matter how many ranges it carries (the batch-pricing contract Sim
	// models), which is what lets a bench assert "N chunks, ≪N requests".
	BatchGets int64
	// BatchRanges counts the ranges carried inside those batch requests, so
	// coverage (how many chunks moved) stays observable next to the request
	// count.
	BatchRanges int64
	// BytesRead and BytesWritten total successful payload transfer.
	BytesRead, BytesWritten int64
}

// Requests is the read-path request count: whole-object gets, range gets,
// and batched gets, each batch counted once.
func (s CountingStats) Requests() int64 { return s.Gets + s.RangeGets + s.BatchGets }

// Snapshot copies the current counter values.
func (c *Counting) Snapshot() CountingStats {
	return CountingStats{
		Gets:         c.gets.Load(),
		RangeGets:    c.rangeGets.Load(),
		BatchGets:    c.batchGets.Load(),
		BatchRanges:  c.batchRanges.Load(),
		Puts:         c.puts.Load(),
		Deletes:      c.deletes.Load(),
		Lists:        c.lists.Load(),
		BytesRead:    c.bytesRead.Load(),
		BytesWritten: c.bytesWritten.Load(),
	}
}

// Reset atomically zeroes every counter, starting a fresh measurement
// window.
func (c *Counting) Reset() {
	c.gets.Store(0)
	c.rangeGets.Store(0)
	c.batchGets.Store(0)
	c.batchRanges.Store(0)
	c.puts.Store(0)
	c.deletes.Store(0)
	c.lists.Store(0)
	c.bytesRead.Store(0)
	c.bytesWritten.Store(0)
}

// Get implements Provider.
func (c *Counting) Get(ctx context.Context, key string) ([]byte, error) {
	c.gets.Add(1)
	data, err := c.inner.Get(ctx, key)
	if err == nil {
		c.bytesRead.Add(int64(len(data)))
	}
	return data, err
}

// GetRange implements Provider.
func (c *Counting) GetRange(ctx context.Context, key string, offset, length int64) ([]byte, error) {
	c.rangeGets.Add(1)
	data, err := c.inner.GetRange(ctx, key, offset, length)
	if err == nil {
		c.bytesRead.Add(int64(len(data)))
	}
	return data, err
}

// GetRanges implements BatchProvider. The whole batch counts as ONE request
// (BatchGets) with its fan-in recorded separately (BatchRanges): that is
// the pricing model of a ranged multi-get against an object store, and the
// ledger benches use to prove coalescing engaged.
func (c *Counting) GetRanges(ctx context.Context, reqs []RangeReq) ([][]byte, error) {
	if len(reqs) == 0 {
		return nil, nil
	}
	c.batchGets.Add(1)
	c.batchRanges.Add(int64(len(reqs)))
	out, err := GetRanges(ctx, c.inner, reqs)
	for _, data := range out {
		if data != nil {
			c.bytesRead.Add(int64(len(data)))
		}
	}
	return out, err
}

// Put implements Provider.
func (c *Counting) Put(ctx context.Context, key string, data []byte) error {
	c.puts.Add(1)
	c.bytesWritten.Add(int64(len(data)))
	return c.inner.Put(ctx, key, data)
}

// Delete implements Provider.
func (c *Counting) Delete(ctx context.Context, key string) error {
	c.deletes.Add(1)
	return c.inner.Delete(ctx, key)
}

// List implements Provider.
func (c *Counting) List(ctx context.Context, prefix string) ([]string, error) {
	c.lists.Add(1)
	return c.inner.List(ctx, prefix)
}

// Requests returns the total read-path request count (each batched
// multi-get counts once).
func (c *Counting) Requests() int64 {
	return c.gets.Load() + c.rangeGets.Load() + c.batchGets.Load()
}

// Flaky injects failures into a provider for failure-injection tests: every
// Nth read-path operation (Get, GetRange) returns err. It stays beside
// Faulty for what Faulty does not offer: a caller-supplied error value and
// an exact every-Nth schedule.
type Flaky struct {
	passthrough
	every int64
	err   error

	mu    sync.Mutex
	count int64
}

// NewFlaky returns a provider that fails every n-th read with err. Pass a
// Transient-wrapped error to make the failures recoverable by a Retry layer;
// see Faulty for rate-based schedules, stalls and partial reads.
func NewFlaky(inner Provider, n int64, err error) *Flaky {
	return &Flaky{passthrough: passthrough{inner}, every: n, err: err}
}

func (f *Flaky) tick() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.count++
	if f.every > 0 && f.count%f.every == 0 {
		return f.err
	}
	return nil
}

// Get implements Provider.
func (f *Flaky) Get(ctx context.Context, key string) ([]byte, error) {
	if err := f.tick(); err != nil {
		return nil, err
	}
	return f.inner.Get(ctx, key)
}

// GetRange implements Provider.
func (f *Flaky) GetRange(ctx context.Context, key string, offset, length int64) ([]byte, error) {
	if err := f.tick(); err != nil {
		return nil, err
	}
	return f.inner.GetRange(ctx, key, offset, length)
}
