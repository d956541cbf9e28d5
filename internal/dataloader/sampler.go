package dataloader

import (
	"math/rand"
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
// the consumer receives. Planning runs before the first job does, so the
// first batch waits for all of it: it takes time linear in the rows, with a
// fixed number of allocations and no comparison sort — the delivery order is
// one permutation, the itinerary the groups in order of their first
// appearance in it, and every job's rows are cut from one backing slice —
// and it resolves rows to chunks through one Tensor.ChunkSpans snapshot per
// tensor (a spanCursor), never a locked lookup per row.
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
// groups. Rows without a stored primary chunk become per-row groups. Every
// group's rows are cut from one backing slice: a first pass numbers each
// row's group, consulting the map only when a row leaves the previous row's
// chunk, and a second fills the groups.
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
	groupOf := make([]int, n)
	idx := map[uint64]int{}
	var groups []groupRef
	var counts []int
	last := -1 // the group of the previous row that resolved to a chunk
	for row := 0; row < n; row++ {
		g := -1
		if src, err := v.SourceRow(row); err == nil && t != nil {
			if id, ok := spans.chunkOf(src); ok {
				if last >= 0 && groups[last].key == id {
					g = last
				} else if g, ok = idx[id]; !ok {
					g = len(groups)
					idx[id] = g
					groups = append(groups, groupRef{key: id, chunk: true, media: media})
					counts = append(counts, 0)
				}
				last = g
			}
		}
		if g < 0 {
			g = len(groups)
			groups = append(groups, groupRef{key: noChunk})
			counts = append(counts, 0)
		}
		groupOf[row] = g
		counts[g]++
	}
	backing := make([]int, n)
	off := 0
	for g := range groups {
		groups[g].rows = backing[off : off : off+counts[g]]
		off += counts[g]
	}
	for row, g := range groupOf {
		groups[g].rows = append(groups[g].rows, row)
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
	i, ok := c.spanOf(src)
	if !ok {
		return 0, false
	}
	return c.spans[i].ChunkID, true
}

// spanOf returns the index in the snapshot of the span holding source row
// src, and false when no span holds it.
func (c *spanCursor) spanOf(src uint64) (int, bool) {
	if c.cur < len(c.spans) && c.spans[c.cur].First <= src && src <= c.spans[c.cur].Last {
		return c.cur, true
	}
	i := sort.Search(len(c.spans), func(i int) bool { return c.spans[i].Last >= src })
	if i == len(c.spans) {
		return 0, false
	}
	c.cur = i
	return i, true
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
// sequences — the step the feeder runs lazily per epoch, in time linear in
// the shard's rows and a fixed number of allocations whatever their count.
// The delivery order is the visit order itself, or, when shuffling, the
// visit order spilled through a bounded buffer; it is kept as one
// permutation, at[seq] being the visit position delivered at seq. The
// itinerary is the groups in order of their first appearance in it. The
// jobs come in itinerary order, or for a media primary in delivery order,
// and every job's rows are cut from one backing slice.
func buildPlan(v *view.View, shard epochShard, o Options, epoch int) *epochPlan {
	groups := shard.groups
	n := shard.rows
	// Visit positions number the shard's rows in visit order: group g's rows
	// are positions first[g] up to first[g+1], and grp[p] is p's group.
	first := make([]int, len(groups)+1)
	grp := make([]int32, n)
	for g, gr := range groups {
		first[g+1] = first[g] + len(gr.rows)
		for p := first[g]; p < first[g+1]; p++ {
			grp[p] = int32(g)
		}
	}

	// The delivery order: at[seq] is the visit position delivered at seq.
	at := make([]int, n)
	if !o.Shuffle {
		for p := range at {
			at[p] = p
		}
	} else {
		rng := rand.New(rand.NewSource(epochSeed(o.Seed, epoch, spillSalt)))
		buf := make([]int, 0, min(o.ShuffleBuffer, n))
		next := 0
		emit := func() {
			k := rng.Intn(len(buf))
			at[next] = buf[k]
			next++
			buf[k] = buf[len(buf)-1]
			buf = buf[:len(buf)-1]
		}
		for p := 0; p < n; p++ {
			if len(buf) == o.ShuffleBuffer {
				emit()
			}
			buf = append(buf, p)
		}
		for len(buf) > 0 {
			emit()
		}
	}

	// The itinerary: groups by the first delivery position needing each.
	// Without shuffling that is the visit order itself. itin lists the
	// groups in it; ord[g] is group g's ordinal plus one, 0 while unseen.
	itin := make([]int32, 0, len(groups))
	ord := make([]int, len(groups))
	windowed := false
	for _, p := range at {
		if g := grp[p]; ord[g] == 0 {
			itin = append(itin, g)
			ord[g] = len(itin)
			windowed = windowed || groups[g].media
		}
	}
	plan := &epochPlan{rows: n, groups: make([]groupRef, len(itin))}
	for i, g := range itin {
		plan.groups[i] = groups[g]
	}

	// Split oversized groups so one hot chunk cannot serialize the pool's
	// per-sample decode work behind a single worker; cut a media group in
	// delivery order at every batch window as well. Sub-jobs keep their
	// group's ordinal: the strip look-ahead counts chunks, not jobs.
	maxRows := (n + o.Workers*core.Oversubscribe - 1) / (o.Workers * core.Oversubscribe)
	if maxRows < 1 {
		maxRows = 1
	}
	backing := make([]rowJob, n)
	top := 0
	newJob := func(g int32, rows int) chunkJob {
		cj := chunkJob{ord: ord[g] - 1, chunkID: noChunk, rows: backing[top : top : top+rows]}
		if groups[g].chunk {
			cj.chunkID = groups[g].key
		}
		top += rows
		return cj
	}
	// add appends the row at visit position p, delivered at seq, to cj. A
	// row that fails to resolve is skipped (unreachable: every row came from
	// the same view walk).
	add := func(cj *chunkJob, p, seq int) {
		row := groups[grp[p]].rows[p-first[grp[p]]]
		if src, err := v.SourceRow(row); err == nil {
			cj.rows = append(cj.rows, rowJob{seq: seq, row: row, src: src})
		}
	}
	// tag is a second permutation: for stored-order jobs the delivery
	// sequence of each visit position, for windowed ones the job of each
	// delivery position.
	tag := make([]int, n)
	if !windowed {
		// Each group in itinerary order, its rows in stored order, cut at
		// maxRows.
		for seq, p := range at {
			tag[p] = seq
		}
		jobs := 0
		for _, g := range itin {
			jobs += (len(groups[g].rows) + maxRows - 1) / maxRows
		}
		plan.jobs = make([]chunkJob, 0, jobs)
		for _, g := range itin {
			for lo := first[g]; lo < first[g+1]; lo += maxRows {
				hi := min(lo+maxRows, first[g+1])
				cj := newJob(g, hi-lo)
				for p := lo; p < hi; p++ {
					add(&cj, p, tag[p])
				}
				plan.jobs = append(plan.jobs, cj)
			}
		}
		return plan
	}
	// A media job is one group's rows inside one batch window, in delivery
	// order, cut at maxRows. Jobs are numbered, and come, in the order of
	// their first rows; each group's later jobs interleave with other
	// groups', and each ordinal's first job still comes in itinerary order.
	// (A group of any other primary in a windowed plan is a single row
	// without a chunk, which this cuts as its stored-order job.) open[g] is
	// group g's latest job, its batch window plus one and its row count.
	type openJob struct{ job, window, rows int }
	open := make([]openJob, len(groups))
	jobs := 0
	for seq, p := range at {
		oj := &open[grp[p]]
		if w := seq/o.BatchSize + 1; oj.window != w || oj.rows == maxRows {
			*oj = openJob{job: jobs, window: w}
			jobs++
		}
		oj.rows++
		tag[seq] = oj.job
	}
	count := make([]int, jobs)
	for _, j := range tag {
		count[j]++
	}
	plan.jobs = make([]chunkJob, jobs)
	made := 0
	for seq, p := range at {
		j := tag[seq]
		if j == made {
			plan.jobs[j] = newJob(grp[p], count[j])
			made++
		}
		add(&plan.jobs[j], p, seq)
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
