package dataloader

import (
	"math/rand"

	"repro/internal/core"
	"repro/internal/view"
)

// The sampler implements the paper's chunk-granular shuffle (§3.5, §4.6)
// as a precomputed epoch plan with two independent orders:
//
//   - the CHUNK VISIT ORDER: the distinct chunks of the primary tensor,
//     shuffled per epoch and sharded disjointly across Rank/WorldSize. This
//     is the order chunks are fetched and decoded in — each exactly once
//     per epoch per rank — and the order the feeder's strip look-ahead
//     follows.
//   - the DELIVERY ORDER: the row order the consumer sees, produced by
//     spilling the visit order's rows through a bounded shuffle buffer.
//     Near-uniform shuffling with chunk-local fetches, no shuffle cluster.
//
// Both orders are fixed before any worker starts, so batches are
// byte-identical for a given (Seed, epoch, Rank, WorldSize) at any worker
// count: workers race only over who decodes which chunk, never over what
// the consumer receives.

// noChunk marks a chunk job with no stored primary chunk (computed-only
// views, sequence/link primaries): the job is a degenerate single-row group
// and is never pinned.
const noChunk = ^uint64(0)

// oversubscribe controls how many jobs each worker gets on average: large
// chunk groups are split into sub-jobs so per-sample work (media decode,
// transforms) inside one hot chunk still spreads across the pool — the
// chunk itself is fetched and container-decoded once either way, through
// the shared cache's singleflight layer. More jobs smooth out skew in
// per-chunk cost at slightly more scheduling overhead (the same policy as
// the TQL scan engine).
const oversubscribe = 4

// rowJob is one view row inside a chunk job: the view row, its source row,
// and the delivery sequence at which the reorder stage emits it.
type rowJob struct {
	seq int
	row int
	src uint64
}

// chunkJob is the unit of worker scheduling: one primary-tensor chunk and
// selected rows living in it, in stored order. A worker drains the whole
// job through its reused ScanReaders, so the chunk is fetched and decoded
// once however many rows (or columns) it covers. ord is the job's DISTINCT
// CHUNK ordinal in its epoch's visit order: sub-jobs of one split group
// share it, so the feeder's strip look-ahead is measured in chunks.
type chunkJob struct {
	ord     int
	chunkID uint64
	rows    []rowJob
	// pin is the node-cache key the feeder pinned on behalf of this job
	// (valid when pinned is true); the worker that finishes the job drops
	// it. Sub-jobs of one split group each carry their own pin reference.
	pin    cacheKey
	pinned bool
}

// epochShard is one epoch's shuffled, rank-sharded chunk visit order —
// the O(chunks) skeleton computed up front for every epoch, from which row
// counts, the strip look-ahead, and (lazily) the row-level plan derive.
type epochShard struct {
	groups []groupRef
	rows   int
}

// epochPlan is the row-level expansion of one epochShard: chunk jobs with
// delivery sequences. It is O(rows) and built lazily, one epoch at a time,
// by the pipeline's feeder — then dropped, so multi-epoch runs never hold
// more than one epoch's row state. Sequences and ordinals are epoch-local;
// the feeder offsets the sequences into a global numbering when chaining
// epochs.
type epochPlan struct {
	jobs []chunkJob
	rows int
}

// groupRef is one chunk-aligned row group during plan construction.
type groupRef struct {
	key   uint64
	chunk bool // key is a primary chunk id, not a degenerate per-row group
	rows  []int
}

// chunkGroups partitions the view's rows by the primary tensor's chunks,
// preserving stored order inside each group and first-visit order across
// groups. Rows without a stored primary chunk become per-row groups.
func chunkGroups(v *view.View, primary string) []groupRef {
	t := v.Dataset().Tensor(primary)
	if t != nil && (t.Htype().Sequence || t.Htype().Link) {
		t = nil
	}
	n := v.Len()
	idx := map[uint64]int{}
	var groups []groupRef
	for row := 0; row < n; row++ {
		src, err := v.SourceRow(row)
		if err == nil && t != nil {
			if id, _, cerr := t.ChunkOf(src); cerr == nil {
				g, ok := idx[id]
				if !ok {
					g = len(groups)
					idx[id] = g
					groups = append(groups, groupRef{key: id, chunk: true})
				}
				groups[g].rows = append(groups[g].rows, row)
				continue
			}
		}
		groups = append(groups, groupRef{key: noChunk, rows: []int{row}})
	}
	return groups
}

// epochSeed decorrelates per-epoch rngs (§4.6 per-epoch reseeding) while
// keeping epoch 0 of the base seed identical to the single-epoch order.
// salt separates the chunk-order shuffle stream from the buffer-spill
// stream, so the shard skeleton can be computed without the row walk.
func epochSeed(seed int64, epoch int, salt int64) int64 {
	return seed ^ int64(epoch)*-0x61C8864680B583EB ^ salt // golden-ratio stride
}

const (
	shuffleSalt = 0
	spillSalt   = 0x632BE59BD9B4E019
)

// buildShard computes the rank's chunk visit order for one epoch — the
// shuffled, sharded group skeleton, O(chunks) except under the row-striding
// fallback. Every rank of a world must use the same Seed: they all shuffle
// the same chunk list, then rank r keeps chunks r, r+w, r+2w, ... —
// disjoint and complete by construction. When the dataset has fewer chunks
// than ranks, shards degrade to striding rows so no rank starves.
func buildShard(groups []groupRef, o Options, epoch int) epochShard {
	order := append([]groupRef(nil), groups...)
	if o.Shuffle {
		rng := rand.New(rand.NewSource(epochSeed(o.Seed, epoch, shuffleSalt)))
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	}
	if o.WorldSize > 1 {
		if len(order) >= o.WorldSize {
			// Chunk-granular sharding: rank r keeps chunks r, r+w, ...
			mine := make([]groupRef, 0, (len(order)+o.WorldSize-1)/o.WorldSize)
			for i := o.Rank; i < len(order); i += o.WorldSize {
				mine = append(mine, order[i])
			}
			order = mine
		} else {
			// Fewer chunks than ranks: chunk sharding would leave ranks
			// idle, so stride the rows of the visit order instead. Every
			// rank touches (and decodes) the shared chunks, but coverage
			// stays disjoint and complete and no accelerator starves.
			mine := make([]groupRef, 0, len(order))
			i := 0
			for _, g := range order {
				keep := groupRef{key: g.key, chunk: g.chunk}
				for _, row := range g.rows {
					if i%o.WorldSize == o.Rank {
						keep.rows = append(keep.rows, row)
					}
					i++
				}
				if len(keep.rows) > 0 {
					mine = append(mine, keep)
				}
			}
			order = mine
		}
	}
	shard := epochShard{groups: order}
	for _, g := range order {
		shard.rows += len(g.rows)
	}
	return shard
}

// buildPlan expands one epoch's shard into chunk jobs with delivery
// sequences — the O(rows) step the feeder runs lazily per epoch. The
// delivery order is the visit order itself, or, when shuffling, the visit
// order spilled through a bounded buffer.
func buildPlan(v *view.View, shard epochShard, o Options, epoch int) *epochPlan {
	seqOf := make([]int, v.Len())
	next := 0
	if !o.Shuffle {
		for _, g := range shard.groups {
			for _, row := range g.rows {
				seqOf[row] = next
				next++
			}
		}
	} else {
		rng := rand.New(rand.NewSource(epochSeed(o.Seed, epoch, spillSalt)))
		buf := make([]int, 0, o.ShuffleBuffer)
		emit := func() {
			k := rng.Intn(len(buf))
			seqOf[buf[k]] = next
			next++
			buf[k] = buf[len(buf)-1]
			buf = buf[:len(buf)-1]
		}
		for _, g := range shard.groups {
			for _, row := range g.rows {
				if len(buf) == o.ShuffleBuffer {
					emit()
				}
				buf = append(buf, row)
			}
		}
		for len(buf) > 0 {
			emit()
		}
	}

	// Split oversized groups so one hot chunk cannot serialize the pool's
	// per-sample decode work behind a single worker. Sub-jobs keep their
	// group's ordinal: the strip look-ahead counts chunks, not jobs.
	maxRows := (next + o.Workers*oversubscribe - 1) / (o.Workers * oversubscribe)
	if maxRows < 1 {
		maxRows = 1
	}
	plan := &epochPlan{rows: next, jobs: make([]chunkJob, 0, len(shard.groups))}
	for ord, g := range shard.groups {
		for lo := 0; lo < len(g.rows); lo += maxRows {
			hi := lo + maxRows
			if hi > len(g.rows) {
				hi = len(g.rows)
			}
			cj := chunkJob{ord: ord, chunkID: noChunk, rows: make([]rowJob, 0, hi-lo)}
			if g.chunk {
				cj.chunkID = g.key
			}
			for _, row := range g.rows[lo:hi] {
				src, err := v.SourceRow(row)
				if err != nil {
					continue // unreachable: row came from the same view walk
				}
				cj.rows = append(cj.rows, rowJob{seq: seqOf[row], row: row, src: src})
			}
			plan.jobs = append(plan.jobs, cj)
		}
	}
	return plan
}

// VisitOrder exposes the delivery order a single-rank loader over the full
// dataset would use with the given shuffle settings; ablation benchmarks use
// it to score shuffle quality without streaming any data.
func VisitOrder(ds *core.Dataset, shuffle bool, shuffleBuffer int, seed int64) []int {
	v := view.All(ds)
	o := Options{Shuffle: shuffle, ShuffleBuffer: shuffleBuffer, Seed: seed}.withDefaults()
	groups := chunkGroups(v, primaryColumn(v.Columns()))
	plan := buildPlan(v, buildShard(groups, o, 0), o, 0)
	out := make([]int, plan.rows)
	for _, cj := range plan.jobs {
		for _, rj := range cj.rows {
			out[rj.seq] = rj.row
		}
	}
	return out
}
