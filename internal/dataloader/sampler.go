package dataloader

import (
	"cmp"
	"math/rand"
	"slices"
	"sort"

	"repro/internal/core"
	"repro/internal/view"
)

// The sampler implements the paper's chunk-granular shuffle (§3.5, §4.6)
// as a precomputed epoch plan with three orders:
//
//   - the CHUNK VISIT ORDER: the distinct chunks of the primary tensor,
//     shuffled per epoch and sharded disjointly across Rank/WorldSize. It
//     decides which rows a rank owns and feeds the shuffle buffer.
//   - the DELIVERY ORDER: the row order the consumer sees, produced by
//     spilling the visit order's rows through a bounded shuffle buffer.
//     Near-uniform shuffling with chunk-local fetches, no shuffle cluster.
//   - the FETCH ITINERARY: the visit order's chunks sorted by the first
//     delivery position that needs each of them. It is the order chunks are
//     fetched and decoded in — each exactly once per epoch per rank — and
//     the order the feeder's strip look-ahead follows, so the first batch
//     waits for its own chunks, not for the shuffle buffer to fill. Without
//     shuffling it is the visit order itself.
//
// All three are fixed before any worker starts, so batches are
// byte-identical for a given (Seed, epoch, Rank, WorldSize) at any worker
// count: workers race only over who decodes which chunk, never over what
// the consumer receives. Planning runs before the first job does, so it
// resolves rows to chunks through one Tensor.ChunkSpans snapshot per tensor
// (a spanCursor), never a locked lookup per row.
//
// Worker jobs are cut from the itinerary's groups. A JPEG/PNG primary's rows
// decode one at a time from their chunk's stored bytes, so its groups are cut
// in delivery order wherever the rows cross a batch window, and the jobs run
// in delivery order: the first batch waits for its own decodes, not for every
// row of its chunks. Any other group is one job in stored order (split only
// to spread a hot chunk across the pool), decoding its chunk in one pass.

// noChunk marks a chunk job with no stored primary chunk (computed-only
// views, sequence/link primaries): the job is a degenerate single-row group
// and is never pinned.
const noChunk = ^uint64(0)

// rowJob is one view row inside a chunk job: the view row, its source row,
// and the delivery sequence at which the reorder stage emits it.
type rowJob struct {
	seq int
	row int
	src uint64
}

// chunkJob is the unit of worker scheduling: one primary-tensor chunk and
// selected rows living in it — in stored order, or for a media primary in
// delivery order inside one batch window. A worker drains the job through
// its reused ScanReaders over the chunk the node cache holds pinned for all
// of the chunk's jobs, so it is fetched and decoded once however many rows,
// columns or jobs it covers. ord is the job's DISTINCT CHUNK ordinal in its
// epoch's fetch itinerary: sub-jobs of one split group share it, so the
// feeder's strip look-ahead is measured in chunks.
type chunkJob struct {
	ord     int
	chunkID uint64
	rows    []rowJob
	// pin is the node-cache key the feeder pinned on behalf of this job
	// (valid when pinned is true); the worker that finishes the job drops
	// it. Sub-jobs of one split group each carry their own pin reference.
	pin    core.ChunkKey
	pinned bool
	// reads is the job's epoch's choice of chunks read in part.
	reads *epochReads
}

// epochShard is one epoch's shuffled, rank-sharded chunk visit order —
// the O(chunks) skeleton computed up front for every epoch, from which row
// counts and (lazily) the row-level plan and its itinerary derive.
type epochShard struct {
	groups []groupRef
	rows   int
}

// epochPlan is the row-level expansion of one epochShard: chunk jobs with
// delivery sequences, in fetch-itinerary order. It is O(rows) and built
// lazily, one epoch at a time, by the pipeline's feeder — then dropped, so
// multi-epoch runs never hold more than one epoch's row state. Sequences and
// ordinals are epoch-local; the feeder offsets the sequences into a global
// numbering when chaining epochs.
type epochPlan struct {
	jobs []chunkJob
	// groups is the itinerary: the shard's visit groups, groups[ord] being
	// the group of the jobs with ordinal ord.
	groups []groupRef
	rows   int
}

// groupRef is one chunk-aligned row group during plan construction.
type groupRef struct {
	key   uint64
	chunk bool // key is a primary chunk id, not a degenerate per-row group
	media bool // the chunk's samples are JPEG/PNG, each decoding on its own
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
	media := t != nil && t.Meta().SampleCompression != "none"
	var spans spanCursor
	if t != nil {
		spans = newSpanCursor(t)
	}
	n := v.Len()
	idx := map[uint64]int{}
	var groups []groupRef
	for row := 0; row < n; row++ {
		src, err := v.SourceRow(row)
		if err == nil && t != nil {
			if id, ok := spans.chunkOf(src); ok {
				g, ok := idx[id]
				if !ok {
					g = len(groups)
					idx[id] = g
					groups = append(groups, groupRef{key: id, chunk: true, media: media})
				}
				groups[g].rows = append(groups[g].rows, row)
				continue
			}
		}
		groups = append(groups, groupRef{key: noChunk, rows: []int{row}})
	}
	return groups
}

// spanCursor resolves source rows to chunks through one snapshot of a
// tensor's chunk spans, instead of a locked lookup per row. It searches only
// when a row leaves the span the previous row fell in, so rows in stored
// order cost one comparison each.
type spanCursor struct {
	spans []core.ChunkSpan
	cur   int
}

func newSpanCursor(t *core.Tensor) spanCursor { return spanCursor{spans: t.ChunkSpans()} }

// chunkOf returns the id of the chunk holding source row src, and false
// when no chunk holds it.
func (c *spanCursor) chunkOf(src uint64) (uint64, bool) {
	if c.cur < len(c.spans) && c.spans[c.cur].First <= src && src <= c.spans[c.cur].Last {
		return c.spans[c.cur].ChunkID, true
	}
	i := sort.Search(len(c.spans), func(i int) bool { return c.spans[i].Last >= src })
	if i == len(c.spans) {
		return 0, false
	}
	c.cur = i
	return c.spans[i].ChunkID, true
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
				keep := groupRef{key: g.key, chunk: g.chunk, media: g.media}
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
// order spilled through a bounded buffer. The jobs come in itinerary order,
// or for a media primary in delivery order.
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

	// The itinerary: visit groups by the first delivery position needing
	// each. Positions are distinct, so the order is total; without shuffling
	// they rise along the visit order, which therefore stays as it is.
	order := make([]int, len(shard.groups))
	first := make([]int, len(shard.groups))
	for i, g := range shard.groups {
		order[i], first[i] = i, next
		for _, row := range g.rows {
			first[i] = min(first[i], seqOf[row])
		}
	}
	slices.SortFunc(order, func(a, b int) int { return cmp.Compare(first[a], first[b]) })

	// Split oversized groups so one hot chunk cannot serialize the pool's
	// per-sample decode work behind a single worker; cut a media group in
	// delivery order at every batch window as well. Sub-jobs keep their
	// group's ordinal: the strip look-ahead counts chunks, not jobs.
	maxRows := (next + o.Workers*core.Oversubscribe - 1) / (o.Workers * core.Oversubscribe)
	if maxRows < 1 {
		maxRows = 1
	}
	windowed := false
	plan := &epochPlan{rows: next, jobs: make([]chunkJob, 0, len(order)), groups: make([]groupRef, len(order))}
	for ord, gi := range order {
		g := shard.groups[gi]
		plan.groups[ord] = g
		rows := g.rows
		if g.media {
			windowed = true
			rows = append([]int(nil), rows...)
			slices.SortFunc(rows, func(a, b int) int { return cmp.Compare(seqOf[a], seqOf[b]) })
		}
		for lo := 0; lo < len(rows); {
			hi := lo + 1
			for hi < min(lo+maxRows, len(rows)) && (!g.media || seqOf[rows[hi]]/o.BatchSize == seqOf[rows[lo]]/o.BatchSize) {
				hi++
			}
			cj := chunkJob{ord: ord, chunkID: noChunk, rows: make([]rowJob, 0, hi-lo)}
			if g.chunk {
				cj.chunkID = g.key
			}
			for _, row := range rows[lo:hi] {
				src, err := v.SourceRow(row)
				if err != nil {
					continue // unreachable: row came from the same view walk
				}
				cj.rows = append(cj.rows, rowJob{seq: seqOf[row], row: row, src: src})
			}
			plan.jobs = append(plan.jobs, cj)
			lo = hi
		}
	}
	if windowed {
		// Jobs in delivery order. Each ordinal's first job still comes in
		// itinerary order: both are sorted by first delivery position. No
		// two jobs share a first position, so the order is total.
		slices.SortFunc(plan.jobs, func(a, b chunkJob) int { return cmp.Compare(a.rows[0].seq, b.rows[0].seq) })
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
