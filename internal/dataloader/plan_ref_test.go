package dataloader

import (
	"cmp"
	"math/rand"
	"slices"

	"repro/internal/core"
	"repro/internal/view"
)

// The epoch planner as it was before it took time linear in the rows and a
// fixed number of allocations, kept as the reference the planner is checked
// against (TestPlanMatchesReference).

// refChunkGroups is chunkGroups as it was before its rows shared one
// backing slice: it partitions the view's rows by the primary tensor's chunks,
// preserving stored order inside each group and first-visit order across
// groups. Rows without a stored primary chunk become per-row groups.
func refChunkGroups(v *view.View, primary string) []groupRef {
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

// refBuildPlan is buildPlan as it was before it took linear time: it
// expands one epoch's shard into chunk jobs with delivery sequences, sorting
// the groups by their first delivery position, each media group's rows by
// delivery position and the jobs by their first rows. The
// delivery order is the visit order itself, or, when shuffling, the visit
// order spilled through a bounded buffer. The jobs come in itinerary order,
// or for a media primary in delivery order.
func refBuildPlan(v *view.View, shard epochShard, o Options, epoch int) *epochPlan {
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

// refStripIDs is stripIDs as it was before its two-pass form, with a map
// from chunk id to position and a slice grown per chunk: it resolves the
// distinct chunks of t covering the groups' view
// rows, in the groups' order, and through[ord], how many of them the groups
// up to and including ordinal ord need. For the primary tensor that is the
// groups' own chunk ids, one a group; a secondary column (labels beside
// images, say) has its own chunk layout, which without this the workers would
// first touch as bare origin round trips on the delivery critical path. Rows
// that fail to resolve (computed views) are skipped — the worker's own read
// path handles them. rows[i] is the source rows the groups read of chunk
// ids[i].
func refStripIDs(v *view.View, t *core.Tensor, groups []groupRef) (ids []uint64, through []int, rows [][]uint64) {
	through = make([]int, len(groups))
	spans := newSpanCursor(t)
	index := map[uint64]int{}
	cur := -1 // index of the chunk the previous row resolved to
	for ord, g := range groups {
		for _, row := range g.rows {
			src, err := v.SourceRow(row)
			if err != nil {
				continue
			}
			id, ok := spans.chunkOf(src)
			if !ok {
				continue
			}
			// Rows run in stored order inside a group, so the map is
			// consulted once per chunk change, not once per row.
			if cur < 0 || ids[cur] != id {
				i, seen := index[id]
				if !seen {
					i = len(ids)
					index[id] = i
					ids = append(ids, id)
					rows = append(rows, nil)
				}
				cur = i
			}
			rows[cur] = append(rows[cur], src)
		}
		through[ord] = len(ids)
	}
	return ids, through, rows
}
