package core

import (
	"context"
	"errors"
	"sync"

	"repro/internal/storage"
)

// WriteOptions configures the dataset's write path. Every sealed chunk leaves
// the per-tensor builders through the dataset's background flush pipeline,
// which uploads with bounded concurrency so appends never stall on
// object-store Put latency. Uploads carry the appending caller's context
// values but not its cancellation. Every publish waits for the pipeline to
// drain while its staged state Put is in flight, sending every upload still
// waiting for a lane at once, and writes the root only after both, so the
// stored objects (chunks, version states, root snapshots) are byte-identical
// at every lane count — only the upload order differs. Upload retries are
// the provider chain's job: stack storage.Retry (deeplake.WithRetry) under
// the dataset, and its attempts, backoff and per-attempt timeout cover chunk
// uploads and publish Puts alike. Chunk size is not a write option: each
// tensor's TensorSpec.Bounds sets it.
type WriteOptions struct {
	// FlushWorkers is the number of concurrent chunk uploads while appends
	// run; twice as many sealed chunks may be queued or uploading before
	// appends block for backpressure. The lanes pace only uploads that
	// overlap appends: a publish (Flush, Commit, Checkout, CreateTensor,
	// DeleteTensor) sends every upload still waiting for a lane at once,
	// and the chunks it seals itself, up to the 2 × FlushWorkers the
	// pipeline holds; a seal with more sends the rest as uploads return.
	// Zero or negative means the default, 8.
	FlushWorkers int
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

// defaultFlushWorkers is the upload lane count of a handle whose
// WriteOptions leave FlushWorkers unset.
const defaultFlushWorkers = 8

// flushPipeline is the background chunk uploader, the one way a sealed chunk
// reaches storage. Sealed blobs enter through enqueue (blocking once twice
// the lane count of uploads are in flight — backpressure on the appenders)
// and are uploaded by at most one Put per lane while appends run. A publish
// rushes the pipeline before it seals: every upload still waiting for a lane,
// and every one the seal enqueues, goes out at once, since nothing is left
// for the lanes to overlap and a second wave of Puts would only add a round
// trip before the root. The slots still bound what is in flight: a seal of
// more than 2 × lanes chunks waits for slots, and sends the rest as uploads
// return.
//
// The pending map is the source of truth for every blob that is not yet
// durable: readers consult it before the provider, so same-process reads
// never race an upload, and a blob is only removed once its Put succeeded.
// A failed or aborted upload parks the entry (uploader=false) instead of
// dropping it — the data stays readable, and the next flush attempt
// redrives parked entries, which makes transient upload errors recoverable
// by simply calling Flush again. Parked entries sit outside the backpressure
// bound: while the provider fails, appends keep recording rows (and report
// a DeferredFlushError), one parked blob per sealed chunk, so callers should
// stop ingesting when appends report flush failures. A storage.Retry in the
// provider chain re-attempts a retryable failure inside the uploader that
// owns the key, which holds its lane through the backoff, so only what
// survives those attempts parks and drain waits for the recovery. The
// sticky error clears once every pending blob has drained, so a recovered
// dataset never reports a stale failure. A key is enqueued once
// (Tensor.writeChunk never reuses a name), so each upload is one Put.
//
// Uploads run on the enqueuing (or redriving) caller's context stripped of
// its cancellation (context.WithoutCancel): they carry the caller's values,
// such as trace spans, but once an append has been acknowledged, cancelling
// that caller's context must not retroactively fail the upload. Cancellation
// is honored where the caller is actually waiting — the enqueue backpressure
// wait and the drain barrier both select on the caller's context.
type flushPipeline struct {
	store storage.Provider

	// slots bounds total in-flight uploads; workers bounds concurrent Puts
	// except while rushed is closed (see rush).
	slots   chan struct{}
	workers chan struct{}
	rushed  chan struct{}

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
	// ctx is the latest enqueuing (or redriving) caller's context without
	// its cancellation: the upload carries the caller's values (trace spans,
	// request ids) but outlives the caller.
	ctx context.Context
	// uploader marks an uploader goroutine responsible for this entry;
	// false means the entry is parked (failed or aborted) awaiting redrive.
	uploader bool
}

func newFlushPipeline(store storage.Provider, lanes int) *flushPipeline {
	if lanes <= 0 {
		lanes = defaultFlushWorkers
	}
	idle := make(chan struct{})
	close(idle)
	return &flushPipeline{
		store:   store,
		slots:   make(chan struct{}, 2*lanes),
		workers: make(chan struct{}, lanes),
		rushed:  make(chan struct{}),
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
	// While writes are failing, park the entry and fail fast.
	err := p.firstErr
	p.pending[key] = &pendingChunk{blob: blob, ctx: context.WithoutCancel(ctx), uploader: err == nil}
	p.mu.Unlock()
	if err != nil {
		return err
	}

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

// upload runs in its own goroutine holding one slot: acquire a worker lane
// (or go without one while a publish rushes the pipeline), Put the key's
// blob, release. A failed Put parks the entry and records the sticky error.
func (p *flushPipeline) upload(key string) {
	defer p.end()
	defer func() { <-p.slots }()
	p.mu.Lock()
	rushed := p.rushed
	p.mu.Unlock()
	select {
	case p.workers <- struct{}{}:
		defer func() { <-p.workers }()
	case <-rushed:
	}
	p.mu.Lock()
	pc := p.pending[key]
	p.mu.Unlock()
	// The caller's values without its cancellation: cancelling the enqueuing
	// caller must not fail an acknowledged write. A Retry layer's OpTimeout
	// keeps a black-holed Put from pinning this lane forever.
	if err := p.store.Put(pc.ctx, key, pc.blob); err != nil {
		p.failAndPark(key, err)
		return
	}
	p.mu.Lock()
	delete(p.pending, key)
	if len(p.pending) == 0 {
		// Every blob is durable. A sticky error left over from a failure
		// that has since been redriven successfully would misreport this
		// recovered dataset on the next Flush/Commit, so clear it.
		p.firstErr = nil
	}
	p.mu.Unlock()
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
			pc.uploader, pc.ctx = true, context.WithoutCancel(ctx)
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

// rush lets every upload go without a lane until the returned pace runs:
// those waiting for one go out at once, and so do those enqueued meanwhile,
// up to the slots. A publish rushes before it seals, since it appends nothing
// until it returns and no append is left for the lanes to overlap. A rush
// inside another is a no-op whose pace leaves the outer one in force. Caller
// holds the dataset structure lock exclusively.
func (p *flushPipeline) rush() (pace func()) {
	p.mu.Lock()
	defer p.mu.Unlock()
	select {
	case <-p.rushed:
		return func() {}
	default:
	}
	close(p.rushed)
	return func() {
		p.mu.Lock()
		p.rushed = make(chan struct{})
		p.mu.Unlock()
	}
}

// land redrives every parked upload and rushes all of them out: afterwards
// nothing the pipeline held is still on its way to storage, or the error says
// why. Caller holds the dataset structure lock exclusively.
func (p *flushPipeline) land(ctx context.Context) error {
	defer p.rush()()
	if err := p.redrive(ctx); err != nil {
		return err
	}
	return p.drain(ctx)
}

// remove deletes keys best-effort on at most the pipeline's lane count of
// goroutines, and returns the wait for them.
func (p *flushPipeline) remove(ctx context.Context, keys []string) (wait func()) {
	var wg sync.WaitGroup
	lanes := min(cap(p.workers), len(keys))
	for lane := range lanes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := lane; i < len(keys); i += lanes {
				_ = p.store.Delete(ctx, keys[i])
			}
		}()
	}
	return wg.Wait
}

// SetWriteOptions reconfigures the dataset's write path: it lands every
// upload of the current pipeline, so none outlives its configuration, then
// installs a pipeline with the new lane count. On error the current pipeline
// stays in place (with its pending data intact) and the call can be retried.
// The wait has no deadline: over a provider that can hang, stack
// storage.Retry with an OpTimeout under the dataset so a black-holed Put
// fails instead of blocking this call.
func (ds *Dataset) SetWriteOptions(opts WriteOptions) error {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	if err := ds.flusher.land(context.Background()); err != nil {
		return err
	}
	ds.flusher = newFlushPipeline(ds.store, opts.FlushWorkers)
	return nil
}
