package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"

	"repro/internal/chunk"
	"repro/internal/encoder"
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

// ChunkFetch is a pluggable fetch+open source for a ScanReader: given a
// chunk id it returns the opened chunk. The streaming dataloader passes a
// read through its own ChunkCache (its NodeCache, which Loaders share and
// pin) here in place of the handle's.
type ChunkFetch func(ctx context.Context, chunkID uint64) (*chunk.Chunk, error)

// ScanReader is the one read path from a flat sample index to its stored
// sample and decoded array: Tensor.At, SequenceAt, LinkAt, RawAt and
// Slice's whole-sample case are one-shot readers. A reader keeps the last
// chunk it loaded in a one-chunk slot, with the rows [first, last] that
// chunk stores and the tensor's layout generation they were resolved at, so
// a walk over rows in ascending order resolves and loads each chunk once:
// a row inside the slot's span takes no lock and no chunk-encoder lookup
// while the generation holds. Without a ChunkFetch of its own, a reader
// loads through the decoded-chunk cache of the handle's lineage: a landed
// chunk is fetched and opened once per lineage, whichever readers ask — the
// TQL scan's stages, repeated queries, time-travel twins, one-shot point
// reads — concurrent loads of one chunk coalesce into one, and each block of
// a compressed chunk is inflated once, by the first read that touches it. A
// row still in the write buffer is copied out under the tensor's locks, and
// a tiled sample is assembled from its tiles, read through the lineage's
// cache; neither goes through the slot.
//
// Lifetime: a reader's slot lives for one walk. A write never changes a
// sealed chunk's bytes, and no append grows one. SetAt, re-tiling, Merge's
// updates and Rechunk move the rows they rewrite to fresh ids and move the
// tensor's layout generation, so a reader kept across a write resolves its
// next row under the locks again and reads what was written. A ScanReader is
// NOT safe for concurrent use; each scan or loader worker owns one per
// tensor.
type ScanReader struct {
	t     *Tensor
	fetch ChunkFetch
	arena *chunk.Arena
	// The slot: the chunk read last (nil while empty), the rows it stores,
	// and its sample table once a whole-chunk read built it.
	chunk *chunk.Chunk
	span  span
	table []chunk.Sample
}

// span is a landed chunk and the rows [first, last] it stores, as the
// tensor's layout generation gen mapped them.
type span struct {
	id          uint64
	first, last uint64
	gen         uint64
}

// NewScanReader returns a reader with an empty chunk slot whose fetches go
// through the lineage's decoded-chunk cache.
func (t *Tensor) NewScanReader() *ScanReader { return &ScanReader{t: t} }

// NewScanReaderWith returns a reader whose chunk fetches are served by fetch
// (the dataloader reads through its NodeCache, a ChunkCache of its own)
// instead of the lineage's ChunkCache. Tiles are read through the lineage's
// ChunkCache either way.
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

// location is a flat sample index resolved to a tiled sample's layout, a
// copy of a write-buffered row's stored sample, or else its chunk's span
// and its index in that chunk. It is passed by value on every row, so the
// rare parts are pointers.
type location struct {
	span    span
	local   int
	tile    *encoder.TileEntry
	pending *chunk.Sample
}

// inSlot returns idx's index in the chunk in the slot, with no lock;
// ok=false unless idx is in the slot's span and the tensor's layout
// generation is still the slot's.
func (r *ScanReader) inSlot(idx uint64) (local int, ok bool) {
	if r.chunk == nil || idx < r.span.first || idx > r.span.last || r.t.layoutGen.Load() != r.span.gen {
		return 0, false
	}
	return int(idx - r.span.first), true
}

// locate resolves flat sample idx (for a sequence tensor, one item): from
// the slot when it holds idx (inSlot), else under the tensor's read locks.
func (r *ScanReader) locate(idx uint64) (location, error) {
	if local, ok := r.inSlot(idx); ok {
		return location{span: r.span, local: local}, nil
	}
	t := r.t
	t.ds.mu.RLock()
	defer t.ds.mu.RUnlock()
	t.mu.RLock()
	defer t.mu.RUnlock()
	if entry, tiled := t.tileEnc.Get(idx); tiled {
		tile := entry // only a tiled row's escapes
		return location{tile: &tile}, nil
	}
	first, last, id, err := t.chunkEnc.Span(idx)
	if err != nil {
		return location{}, err
	}
	loc := location{span: span{id: id, first: first, last: last, gen: t.layoutGen.Load()}, local: int(idx - first)}
	if t.builder.Len() > 0 && id == t.pendingID {
		if loc.local >= t.builder.Len() {
			return location{}, fmt.Errorf("core: pending sample %d out of range", loc.local)
		}
		s := t.builder.Samples()[loc.local]
		loc.pending = &s
	}
	return loc, nil
}

// read runs read over the chunk of sp in the slot, loading it unless the
// slot holds it, and heals a damaged block the read finds (Tensor.healed).
// The load runs outside the tensor locks, so a ChunkFetch may re-enter
// tensor read methods (the dataloader's cache calls ReadChunk).
func (r *ScanReader) read(ctx context.Context, sp span, read func(*chunk.Chunk) error) error {
	if r.chunk == nil || r.span.id != sp.id {
		c, err := r.fetcher()(ctx, sp.id)
		if err != nil {
			return err
		}
		r.chunk, r.table = c, nil
	}
	r.span = sp
	err := read(r.chunk)
	if err == nil {
		return nil
	}
	r.table = nil
	r.chunk, err = r.t.healed(ctx, r.chunk, sp.id, err, r.fetcher(), r.t.ChunkIdentity, read)
	return err
}

// fetcher is the reader's ChunkFetch, else the lineage's cache.
func (r *ScanReader) fetcher() ChunkFetch {
	if r.fetch != nil {
		return r.fetch
	}
	return r.t.cachedChunk
}

// healed is the one heal of a damaged block a read finds: err is what read
// returned over c, chunk id as fetch loaded it. If err is chunk.ErrCorrupt,
// it marks c stale, evicts the object (obj names it) from any byte cache in
// the chain and reads once more over what fetch returns, which a ChunkCache
// serves by loading the stale chunk anew — one extra request. A block still
// bad fails that read. It returns the chunk read last, nil if the re-fetch
// failed, and the error named by its object, nil if the heal succeeded.
func (t *Tensor) healed(ctx context.Context, c *chunk.Chunk, id uint64, err error, fetch ChunkFetch, obj func(uint64) string, read func(*chunk.Chunk) error) (*chunk.Chunk, error) {
	if errors.Is(err, chunk.ErrCorrupt) {
		c.MarkStale()
		storage.Evict(t.ds.store, obj(id))
		if c, err = fetch(ctx, id); err == nil {
			err = read(c)
		}
	}
	if err != nil {
		return c, fmt.Errorf("core: chunk object %q of tensor %q: %w", obj(id), t.name, err)
	}
	return c, nil
}

// sample returns the stored sample at an untiled location, inflating the
// blocks of a compressed chunk it spans that no read has touched.
func (r *ScanReader) sample(ctx context.Context, loc location) (s chunk.Sample, err error) {
	if loc.pending != nil {
		return *loc.pending, nil
	}
	err = r.read(ctx, loc.span, func(c *chunk.Chunk) (err error) {
		s, err = c.Sample(loc.local)
		return err
	})
	return s, err
}

// tiled assembles a tiled sample from the tiles overlapping region (nil
// means the whole sample), each read whole through the lineage's cache, not
// through the slot.
func (r *ScanReader) tiled(ctx context.Context, entry encoder.TileEntry, region []tensor.Range) (*tensor.NDArray, error) {
	needed := entry.Layout.TilesOverlapping(region)
	tiles := make(map[int]*tensor.NDArray, len(needed))
	for _, ti := range needed {
		samples, err := r.t.samplesOf(ctx, entry.ChunkIDs[ti], r.t.cachedChunk, r.t.ChunkIdentity)
		if err != nil {
			return nil, err
		}
		if len(samples) != 1 {
			return nil, fmt.Errorf("core: tile chunk holds %d samples, want 1", len(samples))
		}
		if tiles[ti], err = r.t.decode(samples[0], r.arena); err != nil {
			return nil, err
		}
	}
	return entry.Layout.Assemble(r.t.Dtype(), tiles, region)
}

// item decodes flat sample idx (for a sequence tensor, one item).
func (r *ScanReader) item(ctx context.Context, idx uint64) (*tensor.NDArray, error) {
	loc, err := r.locate(idx)
	if err != nil {
		return nil, err
	}
	if loc.tile != nil {
		return r.tiled(ctx, *loc.tile, nil)
	}
	s, err := r.sample(ctx, loc)
	if err != nil {
		return nil, err
	}
	return r.t.decode(s, r.arena)
}

// StoredAt returns the stored (still media-encoded) sample idx, opening the
// containing chunk once and reusing it across calls; a write-buffered row is
// served from its copy. ok=false, with no IO, means idx has no one stored
// sample: a sequence row or a tiled sample, which At reads. The sample's
// Data and Shape are storage-owned and read-only, as ReadChunk says; At
// returns the caller's own array.
func (r *ScanReader) StoredAt(ctx context.Context, idx uint64) (chunk.Sample, bool, error) {
	if r.t.spec.Sequence {
		return chunk.Sample{}, false, nil
	}
	loc, err := r.locate(idx)
	if err != nil || loc.tile != nil {
		return chunk.Sample{}, false, err
	}
	s, err := r.sample(ctx, loc)
	return s, err == nil, err
}

// StoredRow returns row idx's stored samples — a sequence row's items, else
// its one sample — as StoredAt returns each; ok=false means one is tiled. A
// one-sample row in a landed chunk is a window on the chunk's sample table,
// which the slot reads whole once, so it allocates nothing.
func (r *ScanReader) StoredRow(ctx context.Context, idx uint64) ([]chunk.Sample, bool, error) {
	if !r.t.spec.Sequence {
		if k, ok := r.inSlot(idx); ok && r.table != nil {
			return r.table[k : k+1 : k+1], true, nil
		}
		loc, err := r.locate(idx)
		if err != nil || loc.tile != nil {
			return nil, false, err
		}
		if loc.pending != nil {
			return []chunk.Sample{*loc.pending}, true, nil
		}
		if err := r.readTable(ctx, loc.span); err != nil {
			return nil, false, err
		}
		if k := loc.local; k < len(r.table) {
			return r.table[k : k+1 : k+1], true, nil
		}
		return nil, false, fmt.Errorf("core: sample %d beyond chunk %d (%d samples)", loc.local, loc.span.id, len(r.table))
	}
	first, end, err := r.t.itemRange(int(idx))
	if err != nil {
		return nil, false, err
	}
	out := make([]chunk.Sample, 0, end-first)
	for i := first; i < end; i++ {
		loc, err := r.locate(i)
		if err != nil || loc.tile != nil {
			return nil, false, err
		}
		s, err := r.sample(ctx, loc)
		if err != nil {
			return nil, false, err
		}
		out = append(out, s)
	}
	return out, true, nil
}

// ChunkRows is the stored chunk holding a sample, as ScanReader.Chunk reads
// it. Sample First+i of the chunk's span (ChunkSpans) is Samples[i], so a
// caller walking the span's rows resolves none of them on its own.
type ChunkRows struct {
	First   uint64
	Samples []chunk.Sample
	// Column, when the chunk's samples each hold one element of the
	// tensor's dtype stored back to back (chunk.Chunk.Column), is their
	// payloads as one byte run: sample First+i is Column[i*size:(i+1)*size]
	// for the dtype's size. Nil otherwise.
	Column []byte
}

// Chunk returns the stored chunk holding sample idx, through the same
// one-chunk slot as StoredAt. It reads the whole chunk, inflating every
// block of a compressed one no read has touched. ok=false, with no IO,
// means idx is not in a stored chunk (sequences, tiles, write-buffered
// rows), which At reads; every error is the one StoredAt returns. The
// samples and column are storage-owned and read-only, as ReadChunk says.
func (r *ScanReader) Chunk(ctx context.Context, idx uint64) (rows ChunkRows, ok bool, err error) {
	if r.t.spec.Sequence {
		return ChunkRows{}, false, nil
	}
	loc, err := r.locate(idx)
	if err != nil || loc.tile != nil || loc.pending != nil {
		return ChunkRows{}, false, err
	}
	rows = ChunkRows{First: loc.span.first}
	if err = r.readTable(ctx, loc.span); err == nil {
		// The table read every block, so Column only reads the directory's
		// verdict.
		rows.Samples = r.table
		rows.Column, err = r.chunk.Column(r.t.dtype.Size())
	}
	if err != nil {
		return ChunkRows{}, false, err
	}
	return rows, true, nil
}

// readTable fills the slot with the chunk of sp and its sample table,
// inflating every block of a compressed chunk no read has touched.
func (r *ScanReader) readTable(ctx context.Context, sp span) error {
	return r.read(ctx, sp, func(c *chunk.Chunk) (err error) {
		r.table, err = c.Samples()
		return err
	})
}

// At returns sample idx like Tensor.At, reusing the slot's opened chunk, so
// sequential reads within one chunk pay a single fetch+open.
func (r *ScanReader) At(ctx context.Context, idx uint64) (*tensor.NDArray, error) {
	if !r.t.spec.Sequence {
		return r.item(ctx, idx)
	}
	items, err := r.SequenceAt(ctx, int(idx))
	if err != nil {
		return nil, err
	}
	return tensor.Stack(items)
}

// SequenceAt returns the items of sequence row i, reading them through the
// slot.
func (r *ScanReader) SequenceAt(ctx context.Context, row int) ([]*tensor.NDArray, error) {
	if !r.t.spec.Sequence {
		return nil, fmt.Errorf("core: tensor %q is not a sequence tensor", r.t.name)
	}
	start, end, err := r.t.itemRange(row)
	if err != nil {
		return nil, err
	}
	items := make([]*tensor.NDArray, 0, end-start)
	for i := start; i < end; i++ {
		item, err := r.item(ctx, i)
		if err != nil {
			return nil, err
		}
		items = append(items, item)
	}
	return items, nil
}

// prefetch resolves the given chunk ids to storage keys and hands them to
// the byte cache's coalescing fetch planner, which packs them into batched
// ranged origin requests running in the background: the call returns once
// every eligible chunk is claimed in the cache's singleflight layer, so
// readers arriving later coalesce onto the in-flight batch rather than
// issuing their own round trips. A chunk sparse plans is carried as its
// checked ranges in the same batches (storage.PrefetchRanges, which finds
// the cache down the chain); a strip of whole chunks goes to the chain's
// Prefetcher. Chunks still in the write buffer, in the flush pipeline's
// pending map, or unknown to the version map are skipped, and a chain
// without a byte cache prefetches nothing, so callers can prefetch
// unconditionally. Returns the number of requests claimed for fetch.
func (t *Tensor) prefetch(ctx context.Context, ids []uint64, sparse map[uint64]*SparseChunk) int {
	pf, whole := t.ds.store.(storage.Prefetcher)
	if !whole && len(sparse) == 0 {
		return 0
	}
	t.ds.mu.RLock()
	t.mu.RLock()
	// Chunk objects are ~target bytes; the planner sizes whole-object
	// requests it cannot stat with this.
	opts := storage.PlanOptions{SizeHint: int64(t.meta.Bounds.Target)}
	keys := make([]string, 0, len(ids))
	var ranges []storage.RangeReq
	for _, id := range ids {
		key, ok := t.landedKey(id)
		switch {
		case !ok:
		case sparse[id] != nil:
			ranges = append(ranges, sparse[id].requests()...)
		default:
			keys = append(keys, key)
		}
	}
	t.mu.RUnlock()
	t.ds.mu.RUnlock()
	if len(ranges) > 0 {
		reqs := make([]storage.RangeReq, 0, len(keys)+len(ranges))
		for _, k := range keys {
			reqs = append(reqs, storage.RangeReq{Key: k, Offset: 0, Length: -1})
		}
		return storage.PrefetchRanges(ctx, t.ds.store, append(reqs, ranges...), opts)
	}
	if !whole || len(keys) == 0 {
		return 0
	}
	return pf.PrefetchAsync(ctx, keys, opts)
}

// StripPlan is the look-ahead both chunk walks share (§4.6 "fetches the next
// batch in advance" within a resource budget): the chunk ids of one tensor in
// the order a walk will need them, cut into strips a fixed number of steps
// wide and handed to the byte cache strip by strip as the walk's frontier
// advances. A step is one stop of the walk: a chunk of the tensor that drives
// it (one id a step) or, for a tensor read beside the driver, whatever new
// chunks of its own the rows of the driver's chunk reach into (any number of
// ids a step). Strips ignore which worker owns which step, so chunks adjacent
// in the keyspace share a coalesced ranged origin request whoever reads them.
// A chunk the walk reads in part (Sparse) goes in its strip's request as its
// checked ranges. How far ahead of the frontier the plan runs is set by the
// byte cache the strips land in (storage.Headroom), not by a constant. Both
// walks run on Walk: the TQL scan's step advances the frontier, on a worker,
// before it evaluates its partition; the dataloader's steps function advances
// it, on the walk's goroutine, before it hands out a job. A walk ends with
// Disown, once Walk has returned.
type StripPlan struct {
	t       *Tensor
	ids     []uint64
	through []int
	width   int
	issued  func(planned, claimed int, err error)
	// Skip, set before the first Cover, leaves out ids no reader will read.
	Skip func(id uint64) bool
	// Sparse, set before the first Cover, names the chunks the walk reads in
	// part, and how.
	Sparse map[uint64]*SparseChunk

	mu     sync.Mutex
	next   int      // first step not yet handed to the byte cache
	handed []uint64 // ids handed to the byte cache
}

// NewStripPlan plans strips of width (at least one) steps over ids, the
// tensor's chunk ids in visit order. through[s] is how many of ids the steps
// up to and including s need; nil means one id a step. issued, when non-nil,
// observes every strip handed over: the ids in it, how many requests the
// cache claimed for fetch, and the hand-off's error (never fatal: readers
// re-fetch on demand).
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

// Cover hands out strips, each id exactly once however many goroutines call
// it. Every strip up to the one holding step n-1 is issued whatever the cache
// can hold: the walk is about to read it. Past that, whole next strips are
// issued while the byte cache's headroom covers a strip's bytes (a sparse
// chunk's ranges, any other chunk at the tensor's chunk target), so the
// look-ahead deepens when fetched chunks are read and stops before it would
// evict its own unread strips. Over a chain without a byte cache only the
// first part runs.
func (p *StripPlan) Cover(ctx context.Context, n int) {
	steps := len(p.ids)
	if p.through != nil {
		steps = len(p.through)
	}
	target := int64(p.t.Meta().Bounds.Target)
	p.mu.Lock()
	defer p.mu.Unlock()
	for p.next < steps {
		hi := min(p.next+p.width, steps)
		strip := p.ids[p.before(p.next):p.before(hi)]
		if p.next >= n && storage.Headroom(p.t.ds.store) < p.bytes(strip, target) {
			return
		}
		p.next = hi
		if p.Skip != nil {
			strip = slices.DeleteFunc(slices.Clone(strip), p.Skip)
		}
		if len(strip) == 0 {
			continue
		}
		p.handed = append(p.handed, strip...)
		// prefetch claims keys and returns while the coalesced fetches run
		// in the background, so holding mu serialises planning, not IO.
		claimed := p.t.prefetch(ctx, strip, p.Sparse)
		if p.issued != nil {
			p.issued(len(strip), claimed, nil)
		}
	}
}

// bytes is what a strip owes the byte cache until it is read.
func (p *StripPlan) bytes(strip []uint64, target int64) int64 {
	var n int64
	for _, id := range strip {
		if s := p.Sparse[id]; s != nil {
			n += s.Size()
		} else {
			n += target
		}
	}
	return n
}

// Disown ends the walk (storage.Disown): call it once every context passed
// to Cover is done, so a walk that stopped early leaves no unread debt.
func (p *StripPlan) Disown() {
	p.mu.Lock()
	defer p.mu.Unlock()
	reqs := make([]storage.RangeReq, 0, len(p.handed))
	for _, id := range p.handed {
		if s := p.Sparse[id]; s != nil {
			reqs = append(reqs, s.requests()...)
			continue
		}
		reqs = append(reqs, storage.RangeReq{Key: p.t.ChunkIdentity(id), Offset: 0, Length: -1})
	}
	storage.Disown(p.t.ds.store, reqs)
}
