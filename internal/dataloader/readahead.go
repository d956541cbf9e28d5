package dataloader

import (
	"context"
	"sync"

	"repro/internal/core"
	"repro/internal/view"
)

// The readahead scheduler (§4.6 "fetches the next batch in advance") walks
// the epoch plans' chunk visit order ahead of the worker pool and pulls
// upcoming chunks into the chunk cache, so by the time a worker takes a
// chunk job its chunk is usually resident. It stays at most K chunks ahead
// of the job the workers are currently on, bounding memory the same way the
// cache's byte budget does, and its fetches coalesce with worker fetches
// through the cache's singleflight layer — the chunk is still read only
// once.

// fetchBatch is how many upcoming chunks the scheduler hands to the storage
// layer's fetch planner at a time: near-adjacent chunk objects in the strip
// coalesce into single batched ranged origin requests. Over a provider chain
// that cannot prefetch (no storage.LRU above a batch-capable origin) the
// hand-off is a no-op.
const fetchBatch = 8

// readaheadDriver resolves the tensor whose chunks the scheduler
// prefetches. It returns nil when no column drives chunked reads
// (computed-only views, sequence/link primaries, no chunk-aligned groups),
// in which case readahead is a no-op.
func readaheadDriver(v *view.View, primary string, groups []groupRef) *core.Tensor {
	if primary == "" {
		return nil
	}
	t := v.Dataset().Tensor(primary)
	if t == nil || t.Htype().Sequence || t.Htype().Link {
		return nil
	}
	for _, g := range groups {
		if g.chunk {
			return t
		}
	}
	return nil
}

// raProgress tracks the highest chunk-job ordinal the workers have started
// on; the scheduler blocks on it to stay within its lookahead window.
type raProgress struct {
	mu       sync.Mutex
	cond     *sync.Cond
	frontier int
	closed   bool
}

func newRAProgress() *raProgress {
	p := &raProgress{frontier: -1}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// advance records that a worker has started the chunk job with the given
// ordinal.
func (p *raProgress) advance(ord int) {
	p.mu.Lock()
	if ord > p.frontier {
		p.frontier = ord
		p.cond.Broadcast()
	}
	p.mu.Unlock()
}

// waitUntil blocks until the worker frontier reaches ord (or the epoch
// ends); it reports false when the epoch ended first.
func (p *raProgress) waitUntil(ord int) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	for p.frontier < ord && !p.closed {
		p.cond.Wait()
	}
	return !p.closed
}

// current returns the worker frontier.
func (p *raProgress) current() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.frontier
}

// stop releases any waiting scheduler; called when the pipeline shuts down.
func (p *raProgress) stop() {
	p.mu.Lock()
	p.closed = true
	p.cond.Broadcast()
	p.mu.Unlock()
}

// runReadahead walks the epochs' chunk visit orders and prefetches each
// chunk once the workers are within k distinct chunks of it. Each epoch's
// shard skeleton is rebuilt on demand (buildShard is deterministic and
// O(chunks)), so no cross-epoch itinerary is ever held in memory. Ordinals
// count visit groups — sub-jobs of a split group share one — keeping the
// lookahead window measured in chunks, and groups without a stored chunk
// are skipped but still occupy their ordinal, so the scheduler stays
// aligned with the worker frontier. Fetch errors are ignored here: the
// worker that needs the chunk will hit the same error on its own read path
// and report it with row context.
func runReadahead(ctx context.Context, l *Loader, t *core.Tensor, secondaries []*core.Tensor, groups []groupRef, o Options, prog *raProgress, k int, ready chan<- struct{}) {
	v := l.v
	// ready gates the job feeder: it is closed once the first fetch strip has
	// been issued (and landed), so the workers' first cache misses find the
	// strip's chunks already cached or in flight instead of racing the
	// planner with their own one-chunk origin round trips. Closed on every
	// exit path so an early return can never wedge the pipeline.
	var readyOnce sync.Once
	release := func() {
		if ready != nil {
			readyOnce.Do(func() { close(ready) })
		}
	}
	defer release()
	// Chunks the scheduler decodes are ahead of the feeder's per-job pins
	// (the opening strip lands before any job is enqueued at all), so the
	// scheduler holds its own pin on every chunk in the lookahead window and
	// drops it once the worker frontier passes the chunk's ordinal — by
	// which point the job that needs it has been enqueued and carries the
	// feeder's pin. Without this, a tight budget evicts each prefetched
	// chunk before its job runs and every chunk decodes twice. Pins route
	// through l.pins so the pipeline's shutdown sweep reclaims whatever an
	// aborted walk leaves held.
	type raPin struct {
		ord int
		key cacheKey
	}
	var held []raPin
	releasePast := func(frontier int) {
		i := 0
		for ; i < len(held) && held[i].ord <= frontier; i++ {
			l.pins.unpin(l.cache, held[i].key)
		}
		held = held[i:]
	}
	defer func() {
		for _, h := range held {
			l.pins.unpin(l.cache, h.key)
		}
	}()
	ord := 0
	for e := 0; e < o.Epochs; e++ {
		shard := buildShard(groups, o, e)
		// planned marks how far into the shard the strip prefetcher has
		// handed chunk ids to the storage-level fetch planner.
		planned := 0
		for i, g := range shard.groups {
			if !prog.waitUntil(ord-k) || ctx.Err() != nil {
				return
			}
			releasePast(prog.current())
			// Strip prefetch: hand the next fetchBatch upcoming chunks to
			// the tensor's storage prefetcher as one coalesced fetch plan —
			// near-adjacent chunk objects ride one batched ranged origin
			// request into the byte cache, so the per-chunk cache.get below
			// (and the workers' own fetches) land as cache hits. Paced by
			// the same frontier wait as the walk, so at most one strip of
			// bytes runs ahead of the lookahead window. Errors are ignored
			// like fetch errors below: readers recover per-chunk.
			if i >= planned {
				ids := make([]uint64, 0, fetchBatch)
				j := i
				for ; j < len(shard.groups) && len(ids) < fetchBatch; j++ {
					if shard.groups[j].chunk {
						ids = append(ids, shard.groups[j].key)
					}
				}
				planned = j
				// Secondary stored fields (labels beside images, say) have
				// their own chunk layout that the primary-driven walk never
				// visits; without this their first touch by a worker is a
				// bare origin round trip on the delivery critical path.
				// Hand the chunks covering this strip's rows to the planner
				// too — the prefetcher skips anything already cached, so
				// re-listing a chunk shared between strips costs nothing.
				// PrefetchChunks claims the chunks and returns while the
				// coalesced round trips fly in the background, so per-tensor
				// plans overlap each other and the walk below; workers that
				// reach a strip chunk early coalesce onto its in-flight
				// fetch through the cache's singleflight layer.
				if len(ids) > 0 {
					_, _ = t.PrefetchChunks(ctx, ids)
				}
				for _, sec := range secondaries {
					if sids := stripSecondaryIDs(v, sec, shard.groups[i:j]); len(sids) > 0 {
						_, _ = sec.PrefetchChunks(ctx, sids)
					}
				}
			}
			if i == 0 {
				release()
			}
			// Workers already started (or passed) this chunk: they
			// fetched it themselves, and under budget pressure it may
			// even have been consumed and evicted — refetching would
			// waste origin bandwidth and evict entries workers still
			// hold hot.
			if g.chunk && ord > prog.current() {
				key := cacheKey{scope: l.scope, obj: t.ChunkIdentity(g.key)}
				l.pins.pin(l.cache, key)
				held = append(held, raPin{ord: ord, key: key})
				_, _ = l.cacheGet(ctx, t, g.key)
			}
			ord++
		}
	}
}

// stripSecondaryIDs lists the distinct chunk ids of t covering the view rows
// of the given groups, in visit order. Rows that fail to resolve (computed
// views, rows still in the write buffer) are skipped — the worker's own read
// path handles them.
func stripSecondaryIDs(v *view.View, t *core.Tensor, groups []groupRef) []uint64 {
	var ids []uint64
	seen := map[uint64]bool{}
	for _, g := range groups {
		for _, row := range g.rows {
			src, err := v.SourceRow(row)
			if err != nil {
				continue
			}
			id, _, err := t.ChunkOf(src)
			if err != nil || seen[id] {
				continue
			}
			seen[id] = true
			ids = append(ids, id)
		}
	}
	return ids
}
