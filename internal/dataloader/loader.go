// Package dataloader implements the streaming dataloader of §4.6 as a
// chunk-aligned pipeline on the scan machinery: parallel chunk fetching,
// per-worker chunk-granular decode and user transforms, collation into
// batches, and bounded prefetching — delivering data fast enough that the
// (simulated) accelerator, not IO, is the bottleneck.
//
// The pipeline is one core.Walk, whose steps are chunk jobs:
//
//	epoch plans -> feed (pin, strip look-ahead, chunk jobs) -> workers (fetch+decode+transform) -> deliver in job order (reorder, collate) -> Batches()
//
// The sampler precomputes, per epoch, a chunk visit order (shuffled and
// sharded across Rank/WorldSize), a delivery order (rows spilled through a
// bounded shuffle buffer) and a fetch itinerary (the visit order's chunks
// sorted by the first delivery position each one serves). Workers take chunk
// jobs — a chunk's rows, or for a JPEG/PNG primary the chunk's rows inside
// one batch window, in delivery order — and drain each through reused
// core.ScanReaders backed by a byte-budgeted chunk cache that keeps the chunk
// pinned until its last job is done, so a chunk is fetched and decoded
// exactly once per epoch per rank no matter how many rows, columns, jobs or
// workers touch it — concurrent fetches of the same chunk
// coalesce through a singleflight layer — and the job feeder hands the
// storage layer's fetch planner the itinerary in strips of chunks, as far
// ahead of the jobs it hands out as the byte cache
// has room for unread prefetches (core.StripPlan, the planner the TQL scan
// also uses), so fetch latency overlaps with decode and chunks arrive in
// coalesced batched requests. A sparse view reads what it selects
// (§3.5): a chunk of a column with neither sample nor chunk compression
// whose rows the epoch reads lie in at most half of its data blocks is read
// in part — the strip's batched request carries the chunk's block table,
// directory and those blocks as checked ranges (core.Tensor.PlanSparse),
// and the node cache keeps the result as one entry keyed by the selection,
// pinned, skipped and disowned like a whole chunk. Media decoding runs on
// the walk's workers (the Go analogue of the paper's per-process C++ decode
// that avoids the Python GIL). Because the delivery order is fixed before
// any worker starts, the batch stream is byte-identical for a given seed at
// any worker count.
package dataloader

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync/atomic"

	"repro/internal/chunk"
	"repro/internal/core"
	"repro/internal/storage"
	"repro/internal/tensor"
	"repro/internal/view"
)

// Transform mutates one sample row; it runs on the walk's workers and must be
// safe for concurrent use.
type Transform func(map[string]*tensor.NDArray) (map[string]*tensor.NDArray, error)

// ErrWorkerDied marks an epoch aborted because a worker goroutine died
// mid-job without returning — user code in the worker (a Transform, a
// codec) called runtime.Goexit or panicked past the pipeline. The loader
// never truncates the stream silently: Err() carries this sentinel wrapped
// with the dying row's delivery position, and delivery stops strictly
// before that position, exactly like any other worker failure.
var ErrWorkerDied = errors.New("dataloader: worker died mid-epoch")

// prefetchBatches is the number of collated batches buffered ahead of the
// consumer: enough to absorb uneven batch delivery while the consumer
// computes. Fig 10's GPU utilisation is no higher at 8.
const prefetchBatches = 4

// Options configures a Loader.
type Options struct {
	// BatchSize is the number of samples per batch (default 1).
	BatchSize int
	// Fields restricts the loaded columns; nil loads every view column.
	// Loading fewer tensors streams fewer chunks (§3.1 partial access).
	Fields []string
	// Shuffle enables chunk-granular shuffled streaming (§3.5): the chunk
	// visit order is randomized, then rows spill through a bounded buffer.
	Shuffle bool
	// ShuffleBuffer is the shuffle buffer size in samples (default 2048).
	// The figure printer's AblationShuffleBuffer sweeps it.
	ShuffleBuffer int
	// Seed makes shuffling reproducible. Batches are byte-identical for a
	// fixed seed at any worker count.
	Seed int64
	// Workers sets the fetch/decode/transform worker count (default
	// GOMAXPROCS).
	Workers int
	// Transform is applied per sample on the walk's workers.
	Transform Transform
	// DropLast drops each epoch's trailing partial batch.
	DropLast bool
	// MemoryBudget caps the chunk buffer cache in bytes (default 256MB).
	// This is the loader's "efficient resource allocation" bound (§4.6).
	MemoryBudget int64
	// RawBytes controls media decoding of sample-compressed tensors.
	// When true, raw stored bytes are exposed as 1-d uint8 arrays
	// (useful for byte-throughput benchmarks). Default false (decode).
	// The figure printer's byte-throughput runs set it.
	RawBytes bool
	// Rank and WorldSize shard each epoch's chunk visit order disjointly
	// across simulated training nodes (§6.5): rank r of world w owns
	// chunks r, r+w, r+2w, ... of the (shuffled) order. Every rank must
	// use the same Seed; the rank shards are then disjoint and together
	// cover every row. When the dataset has fewer chunks than ranks, the
	// shards degrade to row striding so no node starves (coverage stays
	// disjoint and complete). WorldSize 0 or 1 means a single node.
	Rank      int
	WorldSize int
	// Epochs streams this many epochs through one Batches call (default
	// 1). Each epoch reshuffles the chunk visit order with a reseeded rng
	// (derived from Seed and the epoch number), and batches never straddle
	// an epoch boundary.
	Epochs int
	// Cache shares a node-level decoded-chunk cache between Loaders: hand
	// the same NodeCache to every Loader (every rank) colocated on one
	// node and each shared chunk is fetched+decoded once per node instead
	// of once per rank (the §3.5 buffer cache promoted to node scope). Keys
	// carry dataset, commit and write identity, so Loaders over different
	// datasets or commits, or before and after a write, can share one cache
	// safely. Nil keeps a private per-Loader cache sized by MemoryBudget;
	// when Cache is set the shared cache's own budget governs and
	// MemoryBudget is ignored.
	Cache *NodeCache

	// readWhole is a test hook: it reads every chunk whole, never in part.
	readWhole bool
}

func (o Options) withDefaults() Options {
	if o.BatchSize <= 0 {
		o.BatchSize = 1
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.ShuffleBuffer <= 0 {
		o.ShuffleBuffer = 2048
	}
	if o.MemoryBudget <= 0 {
		o.MemoryBudget = defaultMemoryBudget
	}
	if o.WorldSize <= 0 {
		o.WorldSize = 1
	}
	if o.Epochs <= 0 {
		o.Epochs = 1
	}
	return o
}

// Batch is one collated batch.
type Batch struct {
	// Index is the batch sequence number, starting at zero and running
	// across epochs.
	Index int
	// Epoch is the zero-based epoch this batch belongs to.
	Epoch int
	// Samples holds the per-sample column maps, in order.
	Samples []map[string]*tensor.NDArray
	// Stacked holds, per column, samples stacked along a new leading
	// axis — present only for columns whose samples share shape and
	// dtype (the deep-learning collation of §4.6).
	Stacked map[string]*tensor.NDArray
	// Unstacked names the columns (sorted) that could not be stacked —
	// mismatched shapes or dtypes across the batch's samples. Their values
	// are still delivered per-sample through Samples; they are listed here
	// so a consumer reading only Stacked sees the column was dropped from
	// collation rather than silently absent.
	Unstacked []string
}

// Loader streams batches from a view.
type Loader struct {
	v     *view.View
	opts  Options
	cache *NodeCache
	// led is this Loader's share of the (possibly shared) cache counters;
	// pins tracks the eviction pins its pipeline currently holds.
	led  cacheLedger
	pins pinLedger

	err  atomic.Value // error
	rows int64        // rows delivered (stats)
	// pendingPeak is the most rows the reorder stage ever held waiting for
	// an earlier delivery position; final once Batches' channel is closed.
	pendingPeak int
}

// New builds a loader over a view.
func New(v *view.View, opts Options) *Loader {
	opts = opts.withDefaults()
	cache := opts.Cache
	if cache == nil {
		cache = NewNodeCache(opts.MemoryBudget)
	}
	return &Loader{v: v, opts: opts, cache: cache}
}

// Cache returns the node cache this Loader reads through — the shared one
// handed in via Options.Cache, or its private default.
func (l *Loader) Cache() *NodeCache { return l.cache }

// ForDataset is a convenience wrapper over the identity view.
func ForDataset(ds *core.Dataset, opts Options) *Loader {
	return New(view.All(ds), opts)
}

// Err returns the first pipeline error once Batches' channel is closed. A
// worker failure always surfaces here (never silently truncates the
// stream), and when the pipeline fails on a sample it is the error of the
// first failing row in job order — the one a 1-worker loader reports — not
// whatever cancellation fallout other workers produced while shutting down.
func (l *Loader) Err() error {
	if e, ok := l.err.Load().(error); ok {
		return e
	}
	return nil
}

// Rows reports how many samples have been delivered.
func (l *Loader) Rows() int64 { return atomic.LoadInt64(&l.rows) }

// CacheStats reports this Loader's chunk buffer cache hits and misses. On
// a shared NodeCache the figures are per-Loader shares; NodeCache.Stats
// has the node-level aggregate.
func (l *Loader) CacheStats() (hits, misses int64) {
	return l.led.hits.Load(), l.led.misses.Load()
}

// CacheCoalesced reports how many of this Loader's chunk fetches were
// absorbed into another in-flight fetch of the same chunk (another worker
// or — on a shared cache — another Loader entirely).
func (l *Loader) CacheCoalesced() int64 { return l.led.coalesced.Load() }

// CacheDecodes reports how many chunk fetch+decodes this Loader actually
// ran (a decode joined by several Loaders is attributed to the one whose
// call ran it). The chunk-decode-once contract bounds the SUM across all
// Loaders sharing a NodeCache by the distinct (tensor, chunk) pairs
// visited per epoch — per node, not per rank.
func (l *Loader) CacheDecodes() int64 { return l.led.decodes.Load() }

// columns resolves the output column subset.
func (l *Loader) columns() ([]view.Column, error) {
	all := l.v.Columns()
	if l.opts.Fields == nil {
		return all, nil
	}
	var out []view.Column
	for _, f := range l.opts.Fields {
		found := false
		for _, c := range all {
			if c.Name == f {
				out = append(out, c)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("dataloader: unknown field %q", f)
		}
	}
	return out, nil
}

// primaryColumn picks the column whose chunk layout drives shuffling and
// sharding: the first stored identity column (typically the large media
// tensor).
func primaryColumn(cols []view.Column) string {
	for _, c := range cols {
		if c.Stored() {
			return c.Source
		}
	}
	return ""
}

// Batches starts the pipeline and returns the batch channel. The channel
// closes when every requested epoch completes, the context is cancelled, or
// an error occurs (check Err afterwards). Batches may only be called once
// per Loader.
func (l *Loader) Batches(ctx context.Context) <-chan Batch {
	out := make(chan Batch, prefetchBatches)
	cols, err := l.columns()
	if err == nil && (l.opts.Rank < 0 || l.opts.Rank >= l.opts.WorldSize) {
		err = fmt.Errorf("dataloader: rank %d out of range for world size %d", l.opts.Rank, l.opts.WorldSize)
	}
	if err != nil {
		l.err.Store(err)
		close(out)
		return out
	}

	// Group rows by primary chunk once (the partition never changes), then
	// walk every epoch's shuffled, sharded chunk visit order to fix the
	// epoch row counts. Only these O(Epochs) integers are retained: the
	// skeletons themselves are deterministic to rebuild, so the feeder
	// regenerates each epoch's shard on demand and the O(rows) plans live
	// one epoch at a time.
	primary := primaryColumn(cols)
	groups := chunkGroups(l.v, primary)
	epochEnd := make([]int, l.opts.Epochs)
	totalRows := 0
	for e := range epochEnd {
		totalRows += buildShard(groups, l.opts, e).rows
		epochEnd[e] = totalRows
	}

	planned := stripTensors(l.v, cols)

	// When strips are being prefetched, the fetch planner — not the worker
	// count — overlaps origin latency: workers almost never block on the
	// wire, so goroutines beyond the CPU count only add scheduler churn. Cap
	// the spawned workers at a small multiple of GOMAXPROCS then; the batch
	// stream is delivery-sequence ordered, so the cap (like Workers itself)
	// never changes what is delivered. Strips are prefetched only over a
	// provider chain that can (StripPlan.Cover is a no-op over any other):
	// without one, workers ARE the IO parallelism and the full count is
	// spawned. The walk's window is three jobs per spawned worker, one
	// running and two waiting, so each worker finds its next job ready, and
	// the strips covered whatever the headroom stay few.
	spawn := l.opts.Workers
	if _, canPrefetch := l.v.Dataset().Store().(storage.Prefetcher); canPrefetch && len(planned) > 0 {
		spawn = min(spawn, 2*runtime.GOMAXPROCS(0))
	}

	go func() {
		var walks []*core.StripPlan
		err := core.Walk(ctx, spawn, 3*spawn,
			func(ctx context.Context, yield func(chunkJob) bool) {
				walks = l.feed(ctx, l.v.Dataset().Tensor(primary), planned, groups, yield)
			},
			func(ctx context.Context) (func(chunkJob, *[]map[string]*tensor.NDArray) error, func()) {
				rl := newRowLoader(l, cols)
				return func(cj chunkJob, samples *[]map[string]*tensor.NDArray) error {
					return rl.run(ctx, cj, samples)
				}, nil
			},
			l.deliver(ctx, epochEnd, out))
		// The walk is over and its workers have exited: drop every strip
		// claim and whatever pins are still held (jobs handed out but never
		// run after a cancellation or failure), so an aborted epoch leaks
		// neither into a shared, long-lived cache. Err is final before the
		// channel closes.
		for _, w := range walks {
			w.Disown()
		}
		l.pins.releaseAll(l.cache)
		if err != nil {
			l.err.Store(err)
		}
		close(out)
	}()
	return out
}

// stripWidth is how many itinerary groups' chunks the feeder hands to the
// storage layer's fetch planner at a time: near-adjacent chunk objects in a
// strip coalesce into single batched ranged origin requests. It sets the
// request size, not the look-ahead depth.
const stripWidth = 8

// stripTensors lists the tensors whose chunks the feeder prefetches in
// strips: the stored columns read chunk by chunk. Computed columns, and
// sequence and link tensors, are read without strips.
func stripTensors(v *view.View, cols []view.Column) []*core.Tensor {
	var out []*core.Tensor
	for _, c := range cols {
		if !c.Stored() {
			continue
		}
		if t := v.Dataset().Tensor(c.Source); t != nil && !t.Htype().Sequence && !t.Htype().Link {
			out = append(out, t)
		}
	}
	return out
}

// planStrips resolves the distinct chunks of t covering the groups' view
// rows, in the groups' order, and through[ord], how many of them the groups
// up to and including ordinal ord need. For the primary tensor that is the
// groups' own chunk ids, one a group, read off the itinerary; a secondary
// column (labels beside images, say) has its own chunk layout, which without
// this the workers would first touch as bare origin round trips on the
// delivery critical path, and which takes two passes over the rows: one
// numbering each row's chunk by the span it lies in, one collecting rows.
// Rows that fail to resolve (computed views) are skipped — the worker's own
// read path handles them. rows[i] is the source rows the groups read of
// chunk ids[i], in the groups' order, for a chunk core.Tensor.PlanSparse
// could read in part — one of a tensor that ReadsInPart whose rows here are
// fewer than it holds — and nil for any other. The rows are cut from one
// backing slice: a fixed number of allocations.
func planStrips(v *view.View, t *core.Tensor, groups []groupRef, primary bool) (ids []uint64, through []int, rows [][]uint64) {
	through = make([]int, len(groups))
	spans := newSpanCursor(t)
	want := func(count int, s int) bool {
		return t.ReadsInPart() && uint64(count) <= spans.spans[s].Last-spans.spans[s].First
	}
	if primary {
		ids = make([]uint64, 0, len(groups))
		rows = make([][]uint64, 0, len(groups))
		n := 0
		for ord, g := range groups {
			if g.chunk {
				ids = append(ids, g.key)
				rows = append(rows, nil)
				if src, err := v.SourceRow(g.rows[0]); err == nil {
					if s, ok := spans.spanOf(src); ok && want(len(g.rows), s) {
						rows[len(rows)-1] = make([]uint64, 0, len(g.rows))
						n += len(g.rows)
					}
				}
			}
			through[ord] = len(ids)
		}
		if n == 0 {
			return ids, through, rows
		}
		backing := make([]uint64, 0, n)
		i := 0
		for _, g := range groups {
			if !g.chunk {
				continue
			}
			if rows[i] != nil {
				start := len(backing)
				for _, row := range g.rows {
					if src, err := v.SourceRow(row); err == nil {
						backing = append(backing, src)
					}
				}
				rows[i] = backing[start:len(backing):len(backing)]
			}
			i++
		}
		return ids, through, rows
	}
	n := 0
	for _, g := range groups {
		n += len(g.rows)
	}
	// at[k] is the number of the k-th row's chunk in ids, -1 when the row
	// does not resolve; number[s] is span s's chunk number plus one, and
	// span[i] the span of chunk number i.
	at := make([]int32, n)
	number := make([]int32, len(spans.spans))
	span := make([]int32, 0, len(spans.spans))
	ids = make([]uint64, 0, len(spans.spans))
	count := make([]int, len(spans.spans))
	k := 0
	for ord, g := range groups {
		for _, row := range g.rows {
			at[k] = -1
			if src, err := v.SourceRow(row); err == nil {
				if s, ok := spans.spanOf(src); ok {
					if number[s] == 0 {
						ids = append(ids, spans.spans[s].ChunkID)
						span = append(span, int32(s))
						number[s] = int32(len(ids))
					}
					at[k] = number[s] - 1
					count[at[k]]++
				}
			}
			k++
		}
		through[ord] = len(ids)
	}
	rows = make([][]uint64, len(ids))
	wanted := 0
	for i := range rows {
		if want(count[i], int(span[i])) {
			wanted += count[i]
		} else {
			count[i] = 0
		}
	}
	if wanted == 0 {
		return ids, through, rows
	}
	backing := make([]uint64, wanted)
	off := 0
	for i := range rows {
		if count[i] > 0 {
			rows[i] = backing[off : off : off+count[i]]
			off += count[i]
		}
	}
	k = 0
	for _, g := range groups {
		for _, row := range g.rows {
			if c := at[k]; c >= 0 && rows[c] != nil {
				src, _ := v.SourceRow(row)
				rows[c] = append(rows[c], src)
			}
			k++
		}
	}
	return ids, through, rows
}

// epochReads names, per tensor and chunk, the chunks one epoch reads in
// part and how; every other chunk is read whole.
type epochReads struct {
	sparse map[string]map[uint64]*core.SparseChunk
}

// sparseReads is the choice of how to read each chunk of t an epoch
// touches, ids[i] holding rows[i]: in part when the blocks holding the rows
// it reads of the chunk are at most half of the chunk's data, whole
// otherwise. Only chunks core.Tensor.PlanSparse can read in part are
// candidates, and planStrips leaves every other chunk's rows nil.
func (l *Loader) sparseReads(t *core.Tensor, ids []uint64, rows [][]uint64) map[uint64]*core.SparseChunk {
	if l.opts.readWhole {
		return nil
	}
	out := map[uint64]*core.SparseChunk{}
	for i, id := range ids {
		if rows[i] == nil {
			continue
		}
		if s, ok := t.PlanSparse(rows[i]); ok {
			if read, total := s.Blocks(); 2*read <= total {
				out[id] = s
			}
		}
	}
	return out
}

// feed hands out the walk's steps and is the strip planner's frontier
// (§4.6 "fetches the next batch in advance"): chunk jobs in plan order —
// the fetch itinerary, first needed, first fetched, or for a media primary
// delivery order, in which each group's first job still comes in itinerary
// order — epochs back to back, with sequences renumbered into the global
// stream. The walk takes a job only when its window has room, so feed runs
// just ahead of the workers; before it yields a group's first job it has
// the planned columns' strips cover that itinerary group — every column's
// strips are cut at the same itinerary groups, stripWidth of them a strip —
// and run on ahead as far as the byte cache has headroom for
// (core.StripPlan.Cover). Every chunk is therefore claimed in the byte
// cache's singleflight layer before a job that reads it exists: workers
// find it cached or join the strip's in-flight batched request and never
// race the planner with a one-chunk round trip. The strips land in the byte
// cache; workers container-decode them on arrival through the node cache.
// Strips leave out chunks already decoded there, and are returned for the
// pipeline's sweep.
//
// A group's primary chunk is pinned in the node cache once per job, all
// before its first job is yielded, and each worker that finishes one of its
// jobs drops one pin, so a tight MemoryBudget can never evict a decoded
// chunk that a planned-but-unstarted job still needs (the silent re-decode
// that would break the fetch+decode-once contract) — a media chunk stays
// pinned from its first batch window to its last.
func (l *Loader) feed(ctx context.Context, primary *core.Tensor, planned []*core.Tensor, groups []groupRef, yield func(chunkJob) bool) (walks []*core.StripPlan) {
	seqBase := 0
	for e := 0; e < l.opts.Epochs; e++ {
		p := buildPlan(l.v, buildShard(groups, l.opts, e), l.opts, e)
		plans := make([]*core.StripPlan, len(planned))
		reads := &epochReads{sparse: map[string]map[uint64]*core.SparseChunk{}}
		for i, t := range planned {
			ids, through, rows := planStrips(l.v, t, p.groups, t == primary)
			sparse := l.sparseReads(t, ids, rows)
			reads.sparse[t.Name()] = sparse
			plans[i] = core.NewStripPlan(t, ids, through, stripWidth, nil)
			plans[i].Sparse = sparse
			plans[i].Skip = func(id uint64) bool {
				return l.cache.Cached(t.ChunkKey(id, sparse[id]))
			}
		}
		walks = append(walks, plans...)
		subJobs := make([]int, len(p.groups))
		for _, cj := range p.jobs {
			subJobs[cj.ord]++
		}
		keys := make([]core.ChunkKey, len(p.groups))
		nextOrd := 0
		for i := range p.jobs {
			cj := &p.jobs[i]
			if cj.ord == nextOrd {
				// A new itinerary group (a media group's later sub-jobs
				// interleave with other groups'). All its sub-jobs take their
				// pin now: one finishing early must not leave the chunk
				// unpinned while a sibling is still planned.
				nextOrd++
				if cj.chunkID != noChunk {
					keys[cj.ord] = primary.ChunkKey(cj.chunkID, reads.sparse[primary.Name()][cj.chunkID])
					for range subJobs[cj.ord] {
						l.pins.pin(l.cache, keys[cj.ord])
					}
				}
				for _, plan := range plans {
					plan.Cover(ctx, cj.ord+1)
				}
			}
			cj.pin, cj.pinned = keys[cj.ord], cj.chunkID != noChunk
			cj.reads = reads
			for ri := range cj.rows {
				cj.rows[ri].seq += seqBase
			}
			if !yield(*cj) {
				return walks
			}
		}
		seqBase += p.rows
	}
	return walks
}

// deliver returns the walk's commit — reorder, collate, emit: rows leave in
// the precomputed delivery order regardless of which worker decoded them.
// Jobs commit in walk order, and a failing job commits only its rows before
// the failing one, so delivery stops strictly before the first failure's
// position.
func (l *Loader) deliver(ctx context.Context, epochEnd []int, out chan<- Batch) func(chunkJob, []map[string]*tensor.NDArray, error) error {
	pending := map[int]map[string]*tensor.NDArray{}
	next := 0
	epoch := 0
	batchIdx := 0
	coll := newCollator()
	var cur []map[string]*tensor.NDArray
	flush := func(force bool) error {
		if len(cur) == 0 {
			return nil
		}
		if !force && len(cur) < l.opts.BatchSize {
			return nil
		}
		if force && l.opts.DropLast && len(cur) < l.opts.BatchSize {
			cur = nil
			return nil
		}
		stacked, unstacked := coll.collate(cur)
		b := Batch{Index: batchIdx, Epoch: epoch, Samples: cur, Stacked: stacked, Unstacked: unstacked}
		batchIdx++
		cur = nil
		select {
		case out <- b:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return func(cj chunkJob, samples []map[string]*tensor.NDArray, err error) error {
		for i, s := range samples {
			pending[cj.rows[i].seq] = s
			l.pendingPeak = max(l.pendingPeak, len(pending))
			for r, ok := pending[next]; ok; r, ok = pending[next] {
				delete(pending, next)
				// Skip past epochs the rank's shard left empty.
				for epoch+1 < len(epochEnd) && next >= epochEnd[epoch] {
					epoch++
				}
				next++
				cur = append(cur, r)
				atomic.AddInt64(&l.rows, 1)
				if err := flush(next == epochEnd[epoch]); err != nil {
					return err
				}
			}
		}
		if errors.Is(err, core.ErrWorkerDied) {
			return fmt.Errorf("%w at delivery position %d", ErrWorkerDied, cj.rows[len(samples)].seq)
		}
		return err
	}
}

// rowLoader is one worker's read state: a ScanReader per stored column,
// backed by the shared chunk cache, so the rows of one chunk job — in stored
// order or, for a media primary, in delivery order — decode their chunk once
// however many rows and columns it covers, and chunks shared between workers
// or jobs are still fetched once (singleflight, pins).
type rowLoader struct {
	l    *Loader
	cols []view.Column
	// readers serve the epoch whose reads they were made for: a chunk read
	// in part holds only that epoch's rows.
	reads   *epochReads
	readers map[string]*core.ScanReader
	// arena serves the worker's sample decodes from 256KB slabs: few large
	// allocations instead of one per sample. The decoded arrays escape into
	// user batches, so the slabs cannot be recycled (no Reset); the worker
	// Forgets them after every chunk job instead, and the garbage collector
	// frees a slab once the consumer has dropped the batches cut from it.
	arena *chunk.Arena
}

func newRowLoader(l *Loader, cols []view.Column) *rowLoader {
	return &rowLoader{l: l, cols: cols, readers: map[string]*core.ScanReader{}, arena: chunk.NewArena()}
}

// run is one walk step: it loads cj's rows into samples, in job order, up to
// the first that fails. However the step ends, the job's chunk no longer
// needs eviction protection from this job, and the arena's slabs are left to
// the samples cut from them.
func (w *rowLoader) run(ctx context.Context, cj chunkJob, samples *[]map[string]*tensor.NDArray) error {
	defer func() {
		if cj.pinned {
			w.l.pins.unpin(w.l.cache, cj.pin)
		}
		w.arena.Forget()
	}()
	if w.reads != cj.reads {
		w.reads = cj.reads
		clear(w.readers)
	}
	*samples = make([]map[string]*tensor.NDArray, 0, len(cj.rows))
	for _, rj := range cj.rows {
		sample, err := w.load(ctx, rj)
		if err != nil {
			return err
		}
		*samples = append(*samples, sample)
	}
	return nil
}

func (w *rowLoader) reader(t *core.Tensor) *core.ScanReader {
	r, ok := w.readers[t.Name()]
	if !ok {
		sparse := w.reads.sparse[t.Name()]
		r = t.NewScanReaderWith(func(ctx context.Context, chunkID uint64) (*chunk.Chunk, error) {
			return w.l.cacheGet(ctx, t, chunkID, sparse[chunkID])
		})
		r.SetArena(w.arena)
		w.readers[t.Name()] = r
	}
	return r
}

// load materializes one row of the selected columns.
func (w *rowLoader) load(ctx context.Context, rj rowJob) (map[string]*tensor.NDArray, error) {
	sample := make(map[string]*tensor.NDArray, len(w.cols))
	for _, c := range w.cols {
		var arr *tensor.NDArray
		var err error
		switch {
		case c.Eval != nil:
			arr, err = c.Eval(ctx, rj.src)
		case c.Source != "":
			arr, err = w.loadStored(ctx, c.Source, rj.src)
		default:
			err = fmt.Errorf("dataloader: column %q has neither source nor eval", c.Name)
		}
		if err != nil {
			return nil, fmt.Errorf("dataloader: row %d column %q: %w", rj.row, c.Name, err)
		}
		sample[c.Name] = arr
	}
	if w.l.opts.Transform != nil {
		out, err := w.l.opts.Transform(sample)
		if err != nil {
			return nil, fmt.Errorf("dataloader: transform at row %d: %w", rj.row, err)
		}
		sample = out
	}
	return sample, nil
}

// loadStored reads one stored sample through the worker's ScanReader and
// decodes it in this worker.
func (w *rowLoader) loadStored(ctx context.Context, tensorName string, src uint64) (*tensor.NDArray, error) {
	t := w.l.v.Dataset().Tensor(tensorName)
	if t == nil {
		return nil, fmt.Errorf("dataloader: unknown tensor %q", tensorName)
	}
	r := w.reader(t)
	if w.l.opts.RawBytes && !t.Htype().Link {
		s, ok, err := r.StoredAt(ctx, src)
		if err != nil {
			return nil, err
		}
		if ok {
			return tensor.FromBytes(tensor.UInt8, []int{len(s.Data)}, w.arena.Copy(s.Data))
		}
	}
	// At decodes through the reader's arena; it reads sequence rows, links
	// and tiled samples (which StoredAt cannot hand over whole) itself.
	return r.At(ctx, src)
}

// collator assembles the Stacked side of batches for one pipeline. The
// stacked columns' backing bytes are drawn from a per-pipeline arena
// instead of a fresh heap array per column per batch. Stacked arrays escape
// into user batches, so — like the rowLoader's decode arena — the arena
// amortizes allocation into 256KB slabs and Forgets them after every batch
// rather than recycling them. One collator is owned by the single
// reorder/emit goroutine, so it needs no locking.
type collator struct {
	arena *chunk.Arena
	// arrs is the reused per-column gather scratch.
	arrs []*tensor.NDArray
}

func newCollator() *collator {
	return &collator{arena: chunk.NewArena()}
}

// collate stacks equal-shape columns along a new batch axis. Columns whose
// samples disagree on shape or dtype cannot be stacked; they are returned
// in unstacked (sorted) so the batch can surface them instead of silently
// dropping the column — their per-sample values remain in Batch.Samples.
func (c *collator) collate(samples []map[string]*tensor.NDArray) (out map[string]*tensor.NDArray, unstacked []string) {
	if len(samples) == 0 {
		return nil, nil
	}
	out = make(map[string]*tensor.NDArray, len(samples[0]))
	for name := range samples[0] {
		arrs := c.arrs[:0]
		complete := true
		for _, s := range samples {
			a, ok := s[name]
			if !ok {
				complete = false
				break
			}
			arrs = append(arrs, a)
		}
		c.arrs = arrs[:0]
		if !complete {
			// The column is not present in every sample (transforms may
			// emit ragged maps): nothing coherent to stack or report.
			continue
		}
		stacked, err := c.stack(arrs)
		if err != nil {
			unstacked = append(unstacked, name)
			continue
		}
		out[name] = stacked
	}
	sort.Strings(unstacked)
	c.arena.Forget()
	return out, unstacked
}

// stack runs tensor.StackInto over an arena-backed buffer sized for the
// column. Shape/dtype validation happens in StackInto before the buffer is
// touched; on mismatch the reserved bytes are simply abandoned to the
// arena's current slab (bounded by error frequency, and mismatched columns
// are reported once per batch).
func (c *collator) stack(arrs []*tensor.NDArray) (*tensor.NDArray, error) {
	buf := c.arena.Alloc(arrs[0].NumBytes() * len(arrs))
	return tensor.StackInto(arrs, buf)
}
