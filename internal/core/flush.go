package core

import (
	"context"
	"errors"
	"sync"
	"time"

	"repro/internal/storage"
)

// WriteOptions configures the dataset's parallel ingestion engine: sealed
// chunks leave the per-tensor builders through a background flush pipeline
// that uploads to the storage provider with bounded concurrency, so appends
// never stall on object-store Put latency.
//
// The zero value keeps the fully synchronous write path: every sealed chunk
// is uploaded inline before the append returns, exactly as the serial
// format reference behaves. Any FlushWorkers > 0 switches to pipelined
// uploads; Flush and Commit drain the pipeline before persisting metadata,
// so the stored objects (chunks, version states, root snapshots) are
// byte-identical to the serial path at every worker count — only the upload
// order differs.
type WriteOptions struct {
	// FlushWorkers is the number of concurrent chunk uploads. 0 keeps the
	// synchronous serial path; 1 pipelines uploads behind a single worker.
	FlushWorkers int
	// MaxPending bounds how many sealed chunks may sit in the pipeline
	// (queued or uploading) before appends block for backpressure. 0
	// defaults to 2*FlushWorkers. Note that chunks parked by a FAILED
	// upload (kept in memory, readable, retried by the next Flush) are
	// outside this bound: appends surface a DeferredFlushError while the
	// provider is failing, and callers that keep appending anyway
	// accumulate one parked blob per sealed chunk until a Flush redrives
	// them — stop ingesting when appends report flush failures.
	MaxPending int
	// UploadTimeout bounds each attempt of a background Put. 0 means no
	// deadline; set it when the provider has no internal timeout, so a hung
	// attempt fails (and is re-attempted, or parks its chunk) instead of
	// pinning a worker lane and a pending slot forever.
	UploadTimeout time.Duration
	// FlushRetries is the number of re-attempts per upload: a Put that
	// fails retryably (storage.IsRetryable, or its own UploadTimeout
	// firing) is tried again by the uploader that owns the chunk, under
	// capped exponential backoff, up to FlushRetries more times before the
	// chunk parks for the next manual Flush. The uploader holds its worker
	// lane through the backoff, so Flush and Commit wait for the recovery.
	// These are storage.Retry's attempts: over a provider chain that
	// already has a Retry layer they multiply with its own. 0 parks on the
	// first failure.
	FlushRetries int
	// FlushBackoff shapes the delays between those re-attempts. The zero
	// value uses the storage.Backoff defaults (10ms base, 1s cap).
	FlushBackoff storage.Backoff
	// AutotuneChunkBytes enables ingest-time chunk-size autotuning with the
	// given target ceiling in bytes: each tensor's builder grows its
	// effective target from the configured Bounds.Target toward this cap
	// (doubling per sealed chunk, floored at the mean observed sample size
	// times a small factor), converging into the paper's 8–16MB band without
	// per-dataset tuning. The schedule depends only on each tensor's append
	// sequence — appends are serialized per tensor regardless of
	// FlushWorkers — so the stored chunks are byte-identical at any worker
	// count. 0 disables autotuning and keeps the static bounds (the default,
	// so existing golden layouts are unaffected).
	AutotuneChunkBytes int64
}

// DeferredFlushError wraps a storage error from the background flush
// pipeline: the sealed bytes it covers are parked in the pipeline's
// pending map — still readable, and retried by the next Flush — so the
// append that surfaced it HAS been recorded in the working state. Callers
// should treat it as "uploads are currently failing", not "this sample was
// rejected". Unwrap exposes the cause (e.g. context.Canceled).
type DeferredFlushError struct{ Cause error }

func (e *DeferredFlushError) Error() string {
	return "core: background chunk flush failing (data parked for retry): " + e.Cause.Error()
}

// Unwrap lets errors.Is/As see through to the cause.
func (e *DeferredFlushError) Unwrap() error { return e.Cause }

// isDeferredFlush reports whether err (anywhere in its chain) is a parked,
// redrivable flush failure rather than a structural append failure.
func isDeferredFlush(err error) bool {
	var dfe *DeferredFlushError
	return errors.As(err, &dfe)
}

// deferredCollector centralizes the write path's error policy: deferred
// flush failures are collected (the operation keeps going, state stays
// consistent) while structural errors abort. note returns the error only
// when it must abort; err surfaces the first deferred failure afterwards.
type deferredCollector struct{ first error }

func (c *deferredCollector) note(err error) error {
	if err == nil || isDeferredFlush(err) {
		if c.first == nil {
			c.first = err
		}
		return nil
	}
	return err
}

func (c *deferredCollector) err() error { return c.first }

func (o WriteOptions) withDefaults() WriteOptions {
	if o.FlushWorkers > 0 && o.MaxPending <= 0 {
		o.MaxPending = 2 * o.FlushWorkers
	}
	if o.MaxPending < o.FlushWorkers {
		o.MaxPending = o.FlushWorkers
	}
	return o
}

// flushPipeline is the background chunk uploader. Sealed blobs enter
// through enqueue (blocking once MaxPending uploads are in flight —
// backpressure on the appenders) and are uploaded by at most FlushWorkers
// concurrent Puts.
//
// The pending map is the source of truth for every blob that is not yet
// durable: readers consult it before the provider, so same-process reads
// never race an upload, and a blob is only removed once its Put succeeded.
// A failed or aborted upload parks the entry (uploader=false) instead of
// dropping it — the data stays readable, and the next flush attempt
// redrives parked entries, which makes transient upload errors recoverable
// by simply calling Flush again. With FlushRetries or UploadTimeout set,
// store is the dataset's provider behind a storage.Retry, so a retryable
// failure is first re-attempted under backoff inside the uploader that owns
// the key — the one retry loop in the repo — and only what survives those
// attempts parks; drain waits for the recovery because that uploader is
// simply still running. The sticky error clears once every pending blob has
// drained, so a recovered dataset never reports a stale failure.
// Re-enqueueing a key still in flight (copy-on-write SetAt rewrites a chunk
// under its existing id) hands the newer bytes to the existing uploader via
// a generation counter instead of racing a second Put on the same object.
//
// Uploads run on the pipeline's own background context, not the enqueuing
// caller's: once an append has been acknowledged, cancelling that caller's
// context must not retroactively fail the upload. Cancellation is honored
// where the caller is actually waiting — the enqueue backpressure wait and
// the drain barrier both select on the caller's context.
type flushPipeline struct {
	store storage.Provider

	// slots bounds total in-flight uploads; workers bounds concurrent Puts.
	slots   chan struct{}
	workers chan struct{}

	mu       sync.Mutex
	firstErr error
	pending  map[string]*pendingChunk
	// active counts uploader goroutines; idle is closed when active drops
	// to zero (and replaced when it rises again), so drain can select on
	// quiescence against its caller's context without a dangling waiter —
	// an abandoned drain leaves nothing behind that a later begin() could
	// race (the sync.WaitGroup Add-during-Wait hazard).
	active int
	idle   chan struct{}
}

type pendingChunk struct {
	blob []byte
	gen  uint64
	// uploader marks an uploader goroutine responsible for this entry;
	// false means the entry is parked (failed or aborted) awaiting redrive.
	uploader bool
}

func newFlushPipeline(store storage.Provider, opts WriteOptions) *flushPipeline {
	opts = opts.withDefaults()
	if opts.FlushRetries > 0 || opts.UploadTimeout > 0 {
		store = storage.NewRetry(store, storage.RetryOptions{
			Attempts:  opts.FlushRetries + 1,
			Backoff:   opts.FlushBackoff,
			OpTimeout: opts.UploadTimeout,
		})
	}
	idle := make(chan struct{})
	close(idle)
	return &flushPipeline{
		store:   store,
		slots:   make(chan struct{}, opts.MaxPending),
		workers: make(chan struct{}, opts.FlushWorkers),
		pending: map[string]*pendingChunk{},
		idle:    idle,
	}
}

// begin registers one uploader goroutine. Caller must hold p.mu NOT held.
func (p *flushPipeline) begin() {
	p.mu.Lock()
	if p.active == 0 {
		p.idle = make(chan struct{})
	}
	p.active++
	p.mu.Unlock()
}

// end retires one uploader goroutine, signaling quiescence at zero.
func (p *flushPipeline) end() {
	p.mu.Lock()
	p.active--
	if p.active == 0 {
		close(p.idle)
	}
	p.mu.Unlock()
}

// Err returns the sticky first upload error (cleared by redrive).
func (p *flushPipeline) Err() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.firstErr
}

// lookup returns the not-yet-durable blob stored under key, if any.
func (p *flushPipeline) lookup(key string) ([]byte, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if pc, ok := p.pending[key]; ok {
		return pc.blob, true
	}
	return nil, false
}

// enqueue hands one sealed blob to the pipeline. The blob is recorded in
// the pending map unconditionally — even when enqueue returns an error, the
// bytes stay readable and redrivable — so callers may treat the chunk as
// part of the dataset state regardless. An error reports that uploads are
// not currently progressing (sticky failure, or ctx cancelled during the
// backpressure wait).
func (p *flushPipeline) enqueue(ctx context.Context, key string, blob []byte) error {
	p.mu.Lock()
	pc, ok := p.pending[key]
	if ok {
		pc.blob = blob
		pc.gen++
	} else {
		pc = &pendingChunk{blob: blob, gen: 1}
		p.pending[key] = pc
	}
	if err := p.firstErr; err != nil {
		// Writes are failing; park the entry and fail fast.
		p.mu.Unlock()
		return err
	}
	if pc.uploader {
		// The existing uploader will observe the new generation.
		p.mu.Unlock()
		return nil
	}
	pc.uploader = true
	p.mu.Unlock()

	select {
	case p.slots <- struct{}{}:
	case <-ctx.Done():
		p.park(key)
		return ctx.Err()
	}
	p.begin()
	go p.upload(key)
	return nil
}

// park marks key's entry as having no uploader; redrive picks it up.
func (p *flushPipeline) park(key string) {
	p.mu.Lock()
	if pc, ok := p.pending[key]; ok {
		pc.uploader = false
	}
	p.mu.Unlock()
}

// upload runs in its own goroutine holding one slot: acquire a worker
// lane, Put the latest generation of the key, release. If a re-enqueue
// replaced the blob while the Put was on the wire, Put again until the
// written generation is the newest, so the store converges to the final
// bytes. A failed Put parks the entry and records the sticky error.
func (p *flushPipeline) upload(key string) {
	defer p.end()
	defer func() { <-p.slots }()
	p.workers <- struct{}{}
	defer func() { <-p.workers }()
	for {
		p.mu.Lock()
		pc := p.pending[key]
		if pc == nil || !pc.uploader {
			p.mu.Unlock()
			return
		}
		blob, gen := pc.blob, pc.gen
		p.mu.Unlock()
		// Pipeline-owned context: the enqueuing caller's cancellation must
		// not retroactively fail an acknowledged write. UploadTimeout (when
		// set) keeps a black-holed Put from pinning this lane forever.
		if err := p.store.Put(context.Background(), key, blob); err != nil {
			p.failAndPark(key, err)
			return
		}
		p.mu.Lock()
		if cur, ok := p.pending[key]; ok && cur == pc && cur.gen == gen {
			delete(p.pending, key)
			if len(p.pending) == 0 {
				// Every blob is durable. A sticky error left over from a
				// failure that has since been redriven successfully would
				// misreport this recovered dataset on the next
				// Flush/Commit, so clear it.
				p.firstErr = nil
			}
			p.mu.Unlock()
			return
		}
		p.mu.Unlock()
	}
}

// failAndPark atomically parks key's entry and records the sticky error —
// one critical section, so a concurrent redrive can never observe the park
// without the error (recover the blob, then be re-failed by a stale write).
func (p *flushPipeline) failAndPark(key string, err error) {
	p.mu.Lock()
	if pc, ok := p.pending[key]; ok {
		pc.uploader = false
	}
	if p.firstErr == nil {
		p.firstErr = err
	}
	p.mu.Unlock()
}

// redrive clears the sticky error and restarts an uploader for every
// parked entry, making a new flush attempt after a transient failure (or a
// cancelled ingest) retry everything that never landed. Caller holds the
// dataset structure lock exclusively.
func (p *flushPipeline) redrive(ctx context.Context) error {
	p.mu.Lock()
	p.firstErr = nil
	var parked []string
	for key, pc := range p.pending {
		if !pc.uploader {
			pc.uploader = true
			parked = append(parked, key)
		}
	}
	p.mu.Unlock()
	for i, key := range parked {
		select {
		case p.slots <- struct{}{}:
		case <-ctx.Done():
			for _, k := range parked[i:] {
				p.park(k)
			}
			return ctx.Err()
		}
		p.begin()
		go p.upload(key)
	}
	return nil
}

// drain is the flush/commit barrier: it waits until every active uploader
// finished (honoring ctx — uploads keep running in the background if the
// caller gives up, and an abandoned drain leaves no dangling waiter) and
// returns the sticky error, if any. Caller holds the dataset structure
// lock exclusively, which guarantees no concurrent enqueue races the wait.
func (p *flushPipeline) drain(ctx context.Context) error {
	for {
		p.mu.Lock()
		idle := p.idle
		quiescent := p.active == 0
		p.mu.Unlock()
		if quiescent {
			return p.Err()
		}
		select {
		case <-idle:
			// Loop: the caller holds the structure lock exclusively so no
			// new enqueue can start uploads, but re-check rather than
			// assume.
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// SetWriteOptions reconfigures the dataset's write path. FlushWorkers > 0
// installs the background flush pipeline; the zero value restores the
// synchronous serial path. Reconfiguring first redrives and drains any
// previous pipeline so no queued upload outlives its configuration; on
// error the previous configuration stays in place (with its pending data
// intact) and the call can be retried. The drain waits without a deadline
// — if the provider can hang, set WriteOptions.UploadTimeout when first
// configuring the pipeline so a black-holed Put fails instead of blocking
// this call.
func (ds *Dataset) SetWriteOptions(opts WriteOptions) error {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	if ds.flusher != nil {
		ctx := context.Background()
		if err := ds.flusher.redrive(ctx); err != nil {
			return err
		}
		if err := ds.flusher.drain(ctx); err != nil {
			return err
		}
	}
	ds.writeOpts = opts
	ds.writeOptsSet = true
	if opts.FlushWorkers > 0 {
		ds.flusher = newFlushPipeline(ds.store, opts)
	} else {
		ds.flusher = nil
	}
	// Propagate the autotune cap to every existing builder; tensors created
	// later pick it up from ds.writeOpts in newTensorShell.
	for _, name := range ds.order {
		t := ds.tensors[name]
		t.mu.Lock()
		t.builder.SetAutotune(int(opts.AutotuneChunkBytes))
		t.mu.Unlock()
	}
	return nil
}

// WriteOptions returns the currently configured write options.
func (ds *Dataset) WriteOptions() WriteOptions {
	ds.mu.RLock()
	defer ds.mu.RUnlock()
	return ds.writeOpts
}

// WriteOptionsConfigured reports whether SetWriteOptions has been called on
// this handle — it distinguishes an explicitly-serial dataset (zero options
// set on purpose) from one that was never configured, so layers that
// install a default pipeline (transform.Pipeline.Eval) don't override a
// deliberate choice.
func (ds *Dataset) WriteOptionsConfigured() bool {
	ds.mu.RLock()
	defer ds.mu.RUnlock()
	return ds.writeOptsSet
}
