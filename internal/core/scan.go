package core

import (
	"context"
	"sync"

	"repro/internal/chunk"
	"repro/internal/storage"
	"repro/internal/tensor"
)

// ChunkSpan is one chunk's contiguous range of sample indices, [First, Last]
// inclusive. The TQL scan engine and the streaming dataloader partition a
// row space along these boundaries so concurrent workers touch disjoint
// chunk sets.
type ChunkSpan struct {
	First, Last uint64
	ChunkID     uint64
}

// ChunkSpans returns the tensor's chunk-aligned partition of its sample
// range, in index order. An empty tensor returns no spans.
func (t *Tensor) ChunkSpans() []ChunkSpan {
	t.ds.mu.RLock()
	defer t.ds.mu.RUnlock()
	t.mu.RLock()
	defer t.mu.RUnlock()
	n := t.chunkEnc.NumChunks()
	out := make([]ChunkSpan, 0, n)
	for r := 0; r < n; r++ {
		first, last, id, err := t.chunkEnc.ChunkRange(r)
		if err != nil {
			break
		}
		out = append(out, ChunkSpan{First: first, Last: last, ChunkID: id})
	}
	return out
}

// ChunkFetch is a pluggable fetch+decode source for a ScanReader: given a
// chunk id it returns the chunk's stored samples. The streaming dataloader
// passes its decoded-chunk cache here, so the reader's chunk loads coalesce
// with other workers instead of going straight to the tensor's read path.
type ChunkFetch func(ctx context.Context, chunkID uint64) ([]chunk.Sample, error)

// ScanReader reads samples of one tensor with chunk-granular reuse: walking
// rows in ascending order fetches and decodes each chunk once instead of
// once per sample. Without a ChunkFetch the fetch goes through the provider
// chain, so concurrent readers pulling the same chunk still coalesce into
// one origin Get. A ScanReader is NOT safe for concurrent use; each scan or
// loader worker owns one per tensor.
type ScanReader struct {
	t       *Tensor
	fetch   ChunkFetch
	arena   *chunk.Arena
	valid   bool
	chunkID uint64
	samples []chunk.Sample
}

// NewScanReader returns a reader with an empty chunk slot whose fetches use
// the tensor's direct read path.
func (t *Tensor) NewScanReader() *ScanReader { return &ScanReader{t: t} }

// NewScanReaderWith returns a reader whose chunk fetches are served by fetch
// (e.g. the dataloader's decoded-chunk cache) instead of the tensor's direct
// read path.
func (t *Tensor) NewScanReaderWith(fetch ChunkFetch) *ScanReader {
	return &ScanReader{t: t, fetch: fetch}
}

// SetArena installs a buffer arena for At's sample decodes: raw payload
// copies and decoded media pixels bump-allocate from pooled slabs instead of
// the heap, taking the steady-state scan loop to near-zero allocations per
// sample. The caller owns the arena's lifecycle: Reset it only once every
// array decoded through this reader is dead (the TQL scan does, per row),
// Forget its slabs when the arrays escape (the dataloader does, per chunk
// job) — see chunk.Arena. A nil arena restores plain heap allocation.
func (r *ScanReader) SetArena(a *chunk.Arena) { r.arena = a }

// locate resolves idx to chunk coordinates under the read locks, reporting
// fallback=true for samples the chunk-granular path cannot serve: sequence
// rows, tiled samples, and rows still in the write buffer.
func (r *ScanReader) locate(idx uint64) (chunkID uint64, local int, fallback bool, err error) {
	t := r.t
	t.ds.mu.RLock()
	defer t.ds.mu.RUnlock()
	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.spec.Sequence {
		return 0, 0, true, nil
	}
	if _, tiled := t.tileEnc.Get(idx); tiled {
		return 0, 0, true, nil
	}
	chunkID, local, err = t.chunkEnc.Lookup(idx)
	if err != nil {
		return 0, 0, false, err
	}
	if t.builder.Len() > 0 && chunkID == t.pendingID {
		return 0, 0, true, nil
	}
	return chunkID, local, false, nil
}

// StoredAt returns the stored (still media-encoded) sample idx, decoding the
// containing chunk once and reusing it across calls. ok=false means the
// sample needs the tensor's direct read path (sequences, tiles,
// write-buffered rows); callers fall back to Tensor.At or RawAt. The chunk
// load itself runs outside the tensor locks, so a ChunkFetch may re-enter
// tensor read methods (the dataloader's cache calls ReadChunkSamples).
func (r *ScanReader) StoredAt(ctx context.Context, idx uint64) (chunk.Sample, bool, error) {
	chunkID, local, fallback, err := r.locate(idx)
	if err != nil {
		return chunk.Sample{}, false, err
	}
	if fallback {
		return chunk.Sample{}, false, nil
	}
	if !r.valid || r.chunkID != chunkID {
		var samples []chunk.Sample
		if r.fetch != nil {
			samples, err = r.fetch(ctx, chunkID)
		} else {
			samples, err = r.t.ReadChunkSamples(ctx, chunkID)
		}
		if err != nil {
			return chunk.Sample{}, false, err
		}
		r.chunkID, r.samples, r.valid = chunkID, samples, true
	}
	if local >= len(r.samples) {
		// Tiled samples register under their first tile chunk; the direct
		// read path reassembles them.
		return chunk.Sample{}, false, nil
	}
	return r.samples[local], true, nil
}

// At returns sample idx like Tensor.At, but keeps the decoded chunk of the
// previous call so sequential reads within one chunk pay a single
// fetch+decode. Sequence, tiled and write-buffered samples fall back to the
// direct per-sample path.
func (r *ScanReader) At(ctx context.Context, idx uint64) (*tensor.NDArray, error) {
	s, ok, err := r.StoredAt(ctx, idx)
	if err != nil {
		return nil, err
	}
	if !ok {
		return r.t.At(ctx, idx)
	}
	return r.t.decodeSampleArena(s, r.arena)
}

// PrefetchChunks resolves the given chunk ids to storage keys and hands them
// to the provider chain's Prefetcher (the LRU cache's coalescing fetch
// planner), which packs near-adjacent chunk objects into batched ranged
// origin requests running in the background: the call returns once every
// eligible chunk is claimed in the cache's singleflight layer, so readers
// arriving later coalesce onto the in-flight batch rather than issuing their
// own round trips. Chunks still in the write buffer, in the flush pipeline's
// pending map, or unknown to the version map are skipped. A provider chain
// without a Prefetcher makes this a no-op, so callers can prefetch
// unconditionally. Returns the number of chunk objects claimed for fetch.
// StripPlan is its one caller outside tests.
func (t *Tensor) PrefetchChunks(ctx context.Context, ids []uint64) (int, error) {
	pf, ok := t.ds.store.(storage.Prefetcher)
	if !ok || len(ids) == 0 {
		return 0, nil
	}
	t.ds.mu.RLock()
	t.mu.RLock()
	// Chunk objects are ~effective-target bytes; the planner sizes
	// whole-object requests it cannot stat with this.
	opts := storage.PlanOptions{SizeHint: int64(t.builder.EffectiveBounds().Target)}
	keys := make([]string, 0, len(ids))
	for _, id := range ids {
		if t.builder.Len() > 0 && id == t.pendingID {
			continue
		}
		vid, known := t.chunkVersion[id]
		if !known {
			continue
		}
		key := chunkKey(vid, t.name, id)
		if fp := t.ds.flusher; fp != nil {
			if _, inflight := fp.lookup(key); inflight {
				continue
			}
		}
		keys = append(keys, key)
	}
	t.mu.RUnlock()
	t.ds.mu.RUnlock()
	if len(keys) == 0 {
		return 0, nil
	}
	return pf.PrefetchAsync(ctx, keys, opts), nil
}

// StripPlan is the look-ahead both chunk walks share (§4.6 "fetches the next
// batch in advance"): the chunk ids of one tensor in the order a walk will
// need them, cut into strips a fixed number of steps wide and handed to
// PrefetchChunks strip by strip as the walk's frontier advances. A step is
// one stop of the walk: a chunk of the tensor that drives it (one id a step)
// or, for a tensor read beside the driver, whatever new chunks of its own the
// rows of the driver's chunk reach into (any number of ids a step). Strips
// ignore which worker owns which step, so chunks adjacent in the keyspace
// share a coalesced ranged origin request whoever reads them, and the tail of
// a strip is look-ahead for whoever comes next. The TQL scan advances the
// frontier when a worker claims a partition; the dataloader's job feeder
// advances it before it enqueues a job.
type StripPlan struct {
	t       *Tensor
	ids     []uint64
	through []int
	width   int
	issued  func(planned, claimed int, err error)

	mu   sync.Mutex
	next int // first step not yet handed to PrefetchChunks
}

// NewStripPlan plans strips of width (at least one) steps over ids, the
// tensor's chunk ids in visit order. through[s] is how many of ids the steps
// up to and including s need; nil means one id a step. issued, when non-nil,
// observes every strip handed over: the ids in it, how many of them the cache
// claimed for fetch, and the hand-off's error (never fatal: readers re-fetch
// on demand).
func NewStripPlan(t *Tensor, ids []uint64, through []int, width int, issued func(planned, claimed int, err error)) *StripPlan {
	return &StripPlan{t: t, ids: ids, through: through, width: width, issued: issued}
}

// before returns how many ids the steps ahead of step need.
func (p *StripPlan) before(step int) int {
	if p.through == nil || step == 0 {
		return step
	}
	return p.through[step-1]
}

// Cover hands out strips until the ids of the first n steps have all been
// given to the fetch planner, each id exactly once however many goroutines
// call it; it never issues past the strip holding step n-1. The common call
// is a no-op (an earlier strip already reached n) or one strip.
func (p *StripPlan) Cover(ctx context.Context, n int) {
	steps := len(p.ids)
	if p.through != nil {
		steps = len(p.through)
	}
	n = min(n, steps)
	p.mu.Lock()
	defer p.mu.Unlock()
	for p.next < n {
		hi := min(p.next+p.width, steps)
		strip := p.ids[p.before(p.next):p.before(hi)]
		p.next = hi
		if len(strip) == 0 {
			continue
		}
		// PrefetchChunks claims keys and returns while the coalesced fetches
		// run in the background, so holding mu serialises planning, not IO.
		claimed, err := p.t.PrefetchChunks(ctx, strip)
		if p.issued != nil {
			p.issued(len(strip), claimed, err)
		}
	}
}
