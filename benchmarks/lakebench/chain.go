package main

import (
	"context"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/simnet"
	"repro/internal/storage"
)

// meter classifies what crosses the origin boundary by key: chunk objects
// (keys holding "/chunks/") against head metadata (everything else). It is
// installed in every run, traced or not, because storage.Counting counts
// requests but not what they were for.
type meter struct {
	metaGets, metaPuts, metaPutBytes atomic.Int64
	chunkReads                       atomic.Int64
}

func isChunkKey(key string) bool { return strings.Contains(key, "/chunks/") }

func (m *meter) read(key string) {
	if isChunkKey(key) {
		m.chunkReads.Add(1)
	} else {
		m.metaGets.Add(1)
	}
}

func (m *meter) put(key string, n int) {
	if !isChunkKey(key) {
		m.metaPuts.Add(1)
		m.metaPutBytes.Add(int64(n))
	}
}

// touchSet records the distinct chunk keys requested at the top of a chain
// (above every cache), for view.sparse_chunk_touch_ratio.
type touchSet struct {
	mu   sync.Mutex
	keys map[string]struct{}
}

func (s *touchSet) add(key string) {
	if !isChunkKey(key) {
		return
	}
	s.mu.Lock()
	if s.keys == nil {
		s.keys = map[string]struct{}{}
	}
	s.keys[key] = struct{}{}
	s.mu.Unlock()
}

func (s *touchSet) reset() {
	s.mu.Lock()
	s.keys = nil
	s.mu.Unlock()
}

func (s *touchSet) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.keys)
}

// inflightClock adds up the time during which at least one call was in
// flight.
type inflightClock struct {
	mu    sync.Mutex
	n     int
	since time.Time
	total time.Duration
}

func (c *inflightClock) enter() {
	c.mu.Lock()
	if c.n == 0 {
		c.since = time.Now()
	}
	c.n++
	c.mu.Unlock()
}

func (c *inflightClock) leave() {
	c.mu.Lock()
	if c.n--; c.n == 0 {
		c.total += time.Since(c.since)
	}
	c.mu.Unlock()
}

func (c *inflightClock) busy() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.n > 0 {
		return c.total + time.Since(c.since)
	}
	return c.total
}

// originWait is the time the process has had a request in flight at an
// origin, read or write, of any chain: on simulated S3 that is time spent
// asleep, which a faster CPU does not shorten (see recorder.cpuBound). It is
// kept in every run, traced or not.
var originWait inflightClock

// tap is the benchmark-owned Provider interposed at a storage boundary. It
// is transparent: it forwards GetRanges as a batch (so coalesced fetch plans
// stay one round trip), exposes Unwrap (so LRU.Stats and SeedDigests walk
// through it), and — see prefetchTap — forwards the Prefetcher extension.
// With a tracer it records one span per call; with a meter it classifies
// keys; with a touch set it records chunk keys. Any of the three may be nil.
type tap struct {
	inner   storage.Provider
	name    string // boundary name: lru, verify, retry, origin or ingest
	tr      *tracer
	m       *meter
	touched *touchSet
}

func (t *tap) Unwrap() storage.Provider { return t.inner }

func (t *tap) begin(ctx context.Context, op, key string) (context.Context, func(int64)) {
	done := func(int64) {}
	if t.tr != nil {
		ctx, done = t.tr.startKeyed(ctx, t.name+"."+op, key)
	}
	if t.m == nil {
		return ctx, done
	}
	// The tap with the meter is the one at the origin.
	originWait.enter()
	return ctx, func(n int64) {
		originWait.leave()
		done(n)
	}
}

// sawRead books one object read with whichever of the meter and the touch
// set this tap carries.
func (t *tap) sawRead(key string) {
	if t.m != nil {
		t.m.read(key)
	}
	if t.touched != nil {
		t.touched.add(key)
	}
}

func (t *tap) Get(ctx context.Context, key string) ([]byte, error) {
	t.sawRead(key)
	ctx, done := t.begin(ctx, "Get", key)
	data, err := t.inner.Get(ctx, key)
	done(int64(len(data)))
	return data, err
}

func (t *tap) GetRange(ctx context.Context, key string, offset, length int64) ([]byte, error) {
	t.sawRead(key)
	ctx, done := t.begin(ctx, "GetRange", key)
	data, err := t.inner.GetRange(ctx, key, offset, length)
	done(int64(len(data)))
	return data, err
}

// GetRanges implements storage.BatchProvider. storage.GetRanges hands the
// batch to the inner provider in one call when it is batch-aware and falls
// back to per-key reads otherwise — exactly what the layer above would have
// done had the tap not been there.
func (t *tap) GetRanges(ctx context.Context, reqs []storage.RangeReq) ([][]byte, error) {
	if len(reqs) == 0 {
		return nil, nil
	}
	for _, r := range reqs {
		t.sawRead(r.Key)
	}
	ctx, done := t.begin(ctx, "GetRanges", reqs[0].Key)
	out, err := storage.GetRanges(ctx, t.inner, reqs)
	var n int64
	for _, data := range out {
		n += int64(len(data))
	}
	done(n)
	return out, err
}

func (t *tap) Put(ctx context.Context, key string, data []byte) error {
	if t.m != nil {
		t.m.put(key, len(data))
	}
	ctx, done := t.begin(ctx, "Put", key)
	err := t.inner.Put(ctx, key, data)
	done(int64(len(data)))
	return err
}

func (t *tap) Delete(ctx context.Context, key string) error {
	ctx, done := t.begin(ctx, "Delete", key)
	defer done(0)
	return t.inner.Delete(ctx, key)
}

func (t *tap) Exists(ctx context.Context, key string) (bool, error) {
	ctx, done := t.begin(ctx, "Exists", key)
	defer done(0)
	return t.inner.Exists(ctx, key)
}

func (t *tap) List(ctx context.Context, prefix string) ([]string, error) {
	ctx, done := t.begin(ctx, "List", prefix)
	defer done(0)
	return t.inner.List(ctx, prefix)
}

func (t *tap) Size(ctx context.Context, key string) (int64, error) {
	ctx, done := t.begin(ctx, "Size", key)
	defer done(0)
	return t.inner.Size(ctx, key)
}

// prefetchTap is a tap over a provider that implements storage.Prefetcher
// (the LRU). core.Tensor.PrefetchChunks type-asserts the dataset's store, so
// a plain tap on top of the LRU would silently turn strip prefetch off.
type prefetchTap struct {
	tap
	pf storage.Prefetcher
}

func (t *prefetchTap) Prefetch(ctx context.Context, keys []string, opts storage.PlanOptions) (int, error) {
	ctx, done := t.begin(ctx, "Prefetch", "")
	n, err := t.pf.Prefetch(ctx, keys, opts)
	done(int64(n))
	return n, err
}

func (t *prefetchTap) PrefetchAsync(ctx context.Context, keys []string, opts storage.PlanOptions) int {
	ctx, done := t.begin(ctx, "PrefetchAsync", "")
	n := t.pf.PrefetchAsync(ctx, keys, opts)
	done(int64(n))
	return n
}

// chain is one assembled provider chain plus handles on the layers whose
// public counters the benchmark reads.
type chain struct {
	top      storage.Provider
	lru      *storage.LRU
	verify   *storage.Verify
	retry    *storage.Retry
	counting *storage.Counting
	m        *meter
	touched  *touchSet
}

// chainSpec says which chain a workload reads through.
type chainSpec struct {
	// s3 puts the real-time simulated S3 profile in front of the bytes;
	// otherwise the in-memory provider is the origin.
	s3 bool
	// lruBytes sizes the RAM cache at the top of the chain.
	lruBytes int64
	// resilient adds Verify and Retry between the cache and the origin,
	// giving the canonical LRU -> Verify -> Retry -> Counting -> origin.
	resilient bool
}

// s3RealTime is simnet.S3SameRegion at TimeScale 1: 15 ms / 25 ms first
// byte, 90 / 70 MB/s per lane, 48 lanes. Every simulated wait is then a
// real sleep of at least 15 ms, far above timer jitter.
func s3RealTime() simnet.Profile {
	p := simnet.S3SameRegion()
	p.TimeScale = 1
	return p
}

// originOver puts the workload's origin cost model in front of the stored
// bytes and the always-on meter plus storage.Counting above that. boundary
// names the tap's spans: "origin" under read chains, "ingest" under the
// write chain, so read-side self times subtract read-side origin time only.
func originOver(bytes *storage.Memory, s3 bool, tr *tracer, boundary string) (*storage.Counting, *meter) {
	var origin storage.Provider = bytes
	if s3 {
		origin = storage.NewSim(bytes, s3RealTime())
	}
	m := &meter{}
	return storage.NewCounting(&tap{inner: origin, name: boundary, tr: tr, m: m}), m
}

// newWriteChain is the ingest path: Counting -> origin, no cache.
func newWriteChain(bytes *storage.Memory, s3 bool, tr *tracer) *chain {
	counting, m := originOver(bytes, s3, tr, "ingest")
	return &chain{top: counting, counting: counting, m: m}
}

// newReadChain assembles a read chain over the stored bytes. Traced runs
// get a tap above every layer; untraced runs only the origin meter.
func newReadChain(bytes *storage.Memory, spec chainSpec, tr *tracer) *chain {
	counting, m := originOver(bytes, spec.s3, tr, "origin")
	c := &chain{counting: counting, m: m}
	var p storage.Provider = counting
	wrap := func(name string) {
		if tr != nil {
			p = &tap{inner: p, name: name, tr: tr}
		}
	}
	if spec.resilient {
		c.retry = storage.NewRetry(p, storage.RetryOptions{})
		p = c.retry
		wrap("retry")
		c.verify = storage.NewVerify(p, storage.VerifyOptions{})
		p = c.verify
		wrap("verify")
	}
	c.lru = storage.NewLRU(p, spec.lruBytes)
	c.top = c.lru
	if tr != nil {
		c.touched = &touchSet{}
		c.top = &prefetchTap{tap: tap{inner: c.lru, name: "lru", tr: tr, touched: c.touched}, pf: c.lru}
	}
	return c
}
