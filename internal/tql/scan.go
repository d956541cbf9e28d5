package tql

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync/atomic"

	"repro/internal/core"
)

// Options tunes query execution. The zero value picks defaults.
type Options struct {
	// Workers bounds the parallel scan width used by WHERE evaluation and
	// by sort/group/arrange/sample key evaluation. Zero or negative uses
	// runtime.GOMAXPROCS(0); 1 forces a serial scan. Results are identical
	// for every worker count.
	Workers int
	// Stats, when non-nil, accumulates prefetch observability counters for
	// the query (planned/claimed/skipped chunks, failed rounds, strips
	// issued). Safe to share across queries; counters only ever add.
	Stats *ScanStats

	// disablePushdown is a test hook: it routes shape-only filters through
	// the data-touching evaluator and resolves SHAPE/NDIM/LEN/SIZE from
	// decoded samples instead of the shape encoder, so tests can cross-check
	// the encoder against the data.
	disablePushdown bool
	// rowAtATime is a test hook: it turns chunk-at-a-time evaluation off, so
	// tests can cross-check it against the tree walker.
	rowAtATime bool
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// stripWidth is the chunk count per prefetch strip: the unit the scan hands
// the fetch planner, coalesced into a few ranged requests. It sets the
// request size, not the look-ahead depth; the byte cache's headroom decides
// how many strips run ahead of the partitions workers have claimed.
const stripWidth = 16

// ScanStats counts what the scan's prefetch machinery actually did, so
// degraded prefetch (shed batches, unclaimable chunks) is visible instead of
// silent. All methods are safe for concurrent use and nil receivers.
type ScanStats struct {
	planned atomic.Int64
	claimed atomic.Int64
	skipped atomic.Int64
	failed  atomic.Int64
	strips  atomic.Int64
}

// record books one strip (core.StripPlan's issued hook): planned chunk ids
// handed to the planner, claimed ids accepted into the cache's singleflight
// layer, and the hand-off's error if any. The planned−claimed remainder
// (already cached, in flight, or still write-buffered) counts as skipped.
func (s *ScanStats) record(planned, claimed int, err error) {
	if s == nil {
		return
	}
	s.strips.Add(1)
	s.planned.Add(int64(planned))
	s.claimed.Add(int64(claimed))
	if skipped := planned - claimed; skipped > 0 {
		s.skipped.Add(int64(skipped))
	}
	if err != nil {
		s.failed.Add(1)
	}
}

// PrefetchPlanned is the total chunk ids handed to the fetch planner.
func (s *ScanStats) PrefetchPlanned() int64 {
	if s == nil {
		return 0
	}
	return s.planned.Load()
}

// PrefetchClaimed is how many of those the cache claimed for background
// fetch. The rest were already resident, in flight, or not yet sealed.
func (s *ScanStats) PrefetchClaimed() int64 {
	if s == nil {
		return 0
	}
	return s.claimed.Load()
}

// PrefetchSkipped is planned minus claimed: chunks the planner declined
// because prefetching them would be redundant.
func (s *ScanStats) PrefetchSkipped() int64 {
	if s == nil {
		return 0
	}
	return s.skipped.Load()
}

// PrefetchFailed counts prefetch rounds that returned an error. Readers fall
// back to demand fetches, so nonzero means degraded, not lost. Chunks whose
// coalesced round trip was shed after claiming surface separately in
// storage.Stats.PrefetchShed.
func (s *ScanStats) PrefetchFailed() int64 {
	if s == nil {
		return 0
	}
	return s.failed.Load()
}

// PrefetchStrips counts strips the scan's strip plan issued.
func (s *ScanStats) PrefetchStrips() int64 {
	if s == nil {
		return 0
	}
	return s.strips.Load()
}

// String renders the counters in the style of Explain's stage notes.
func (s *ScanStats) String() string {
	return fmt.Sprintf("prefetch: %d planned, %d claimed, %d skipped, %d failed rounds, %d strips",
		s.PrefetchPlanned(), s.PrefetchClaimed(), s.PrefetchSkipped(), s.PrefetchFailed(), s.PrefetchStrips())
}

// span is a half-open range [lo, hi) of positions in a row slice.
type span struct{ lo, hi int }

// scanner evaluates expressions over many rows on a core.Walk, partitioning
// work along chunk boundaries.
type scanner struct {
	ds      *core.Dataset
	workers int
	// rawShapes bypasses the shape encoder (Options.disablePushdown).
	rawShapes bool
	// rowAtATime keeps every row on the tree walker (Options.rowAtATime).
	rowAtATime bool
	stats      *ScanStats
}

// splitConjuncts flattens the AND tree of a filter left-to-right and
// returns the longest leading run of shape-only conjuncts — answerable from
// the shape encoder with zero chunk IO — plus the remainder in original
// order. Only that prefix is hoisted into the prefilter: evaluating it
// first, and the remainder only on its survivors, reproduces the per-row
// short-circuit evaluation order exactly. Hoisting a shape conjunct past an
// earlier data conjunct would evaluate it on rows where short-circuiting
// used to guard it (e.g. an out-of-range SHAPE subscript behind a data
// predicate), turning working queries into errors.
func splitConjuncts(x Expr) (shape, data []Expr) {
	conj := flattenAnd(x)
	i := 0
	for i < len(conj) && shapeOnly(conj[i]) {
		i++
	}
	return conj[:i], conj[i:]
}

// flattenAnd lists the conjuncts of an AND tree in evaluation order.
func flattenAnd(x Expr) []Expr {
	if b, ok := x.(Binary); ok && b.Op == "AND" {
		return append(flattenAnd(b.L), flattenAnd(b.R)...)
	}
	return []Expr{x}
}

// andAll rebuilds a conjunction from its conjuncts; nil when empty.
func andAll(xs []Expr) Expr {
	if len(xs) == 0 {
		return nil
	}
	out := xs[0]
	for _, x := range xs[1:] {
		out = Binary{Op: "AND", L: out, R: x}
	}
	return out
}

// filter returns the subset of rows satisfying pred, in input order. The
// merge is positional, so the result is identical for any worker count.
func (sc *scanner) filter(ctx context.Context, rows []uint64, pred Expr) ([]uint64, error) {
	keep := make([]bool, len(rows))
	err := sc.scan(ctx, rows, pred, "WHERE", sink{
		row: func(pos int, _ uint64, v Value) error {
			keep[pos] = v.IsTruthy()
			return nil
		},
		col: func(lo int, vals []float64) {
			for i, f := range vals {
				keep[lo+i] = f != 0
			}
		},
	})
	if err != nil {
		return nil, err
	}
	out := rows[:0]
	for pos, ok := range keep {
		if ok {
			out = append(out, rows[pos])
		}
	}
	return out, nil
}

// filterShapes is filter for a shape-only predicate (see shapeOnly) over
// ascending rows. Such a predicate reads nothing of a row but the shapes of
// the tensors it names, so the tree walker can evaluate it once per run of
// rows across which every named tensor keeps one shape — their shape
// encoders' runs, intersected — on the caller's goroutine, with no walk and
// no chunk IO. Every row of a run takes the run's answer, and a failing run
// fails at its first row with the walker's error: the row and the error a
// scan reports. A row past a named tensor's last shape is a run of its own.
// That is one evaluation per run against filter's one per row spread over
// the workers, so it is taken only when runs are no more than rows/workers;
// filter takes the rest, and any predicate that calls ROW, names no tensor,
// or names an unknown or sequence tensor (a sequence row's shape is not one
// encoder run).
func (sc *scanner) filterShapes(ctx context.Context, rows []uint64, pred Expr) ([]uint64, error) {
	names, row := shapeRefs(pred)
	if row || len(names) == 0 {
		return sc.filter(ctx, rows, pred)
	}
	ends := make([][]uint64, len(names))
	for i, name := range names {
		t := sc.ds.Tensor(name)
		if t == nil || t.Htype().Sequence {
			return sc.filter(ctx, rows, pred)
		}
		ends[i] = t.ShapeRunEnds()
	}
	cursor := make([]int, len(names))
	// runEnd returns the position in rows past the run holding rows[pos],
	// which ends at the first end of a named tensor's run at or after it.
	// Calls take ascending positions, as the cursors into ends advance.
	runEnd := func(pos int) int {
		last := uint64(math.MaxUint64)
		for i, te := range ends {
			c := cursor[i]
			for c < len(te) && te[c] < rows[pos] {
				c++
			}
			cursor[i] = c
			if c == len(te) {
				return pos + 1
			}
			last = min(last, te[c])
		}
		return rowsThrough(rows, pos, len(rows), last)
	}
	runs := 0
	for pos := 0; pos < len(rows); pos = runEnd(pos) {
		if runs++; runs*sc.workers > len(rows) {
			return sc.filter(ctx, rows, pred)
		}
	}
	clear(cursor)
	e := newEnv(ctx, sc.ds, 0)
	var keep bool
	test := func(_ int, _ uint64, v Value) error {
		keep = v.IsTruthy()
		return nil
	}
	out := rows[:0]
	for pos := 0; pos < len(rows); {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := evalRow(e, pred, rows, pos, "WHERE", test); err != nil {
			return nil, err
		}
		end := runEnd(pos)
		if keep {
			out = append(out, rows[pos:end]...)
		}
		pos = end
	}
	return out, nil
}

// shapeRefs lists the tensors whose shapes a shape-only expression reads
// (its only references are SHAPE/NDIM/LEN/SIZE arguments), and whether it
// calls ROW.
func shapeRefs(x Expr) (names []string, row bool) {
	inspect(x, func(n Expr) bool {
		switch n := n.(type) {
		case Call:
			row = row || n.Name == "ROW"
		case Ident:
			if !slices.Contains(names, string(n)) {
				names = append(names, string(n))
			}
		}
		return true
	})
	return names, row
}

// keyed is one evaluated sort/group/arrange key.
type keyed struct {
	isStr bool
	num   float64
	str   string
}

func (a keyed) less(b keyed) bool {
	if a.isStr != b.isStr {
		return !a.isStr // numbers sort before strings
	}
	if a.isStr {
		return a.str < b.str
	}
	return a.num < b.num
}

// keys batch-evaluates a key expression for every row, returning a slice
// parallel to rows. Duplicate row indices (possible after SAMPLE BY) get
// their own entries, unlike a map keyed by row index, and comparisons
// during sorting index the slice directly with no hashing.
func (sc *scanner) keys(ctx context.Context, rows []uint64, key Expr, stage string) ([]keyed, error) {
	keys := make([]keyed, len(rows))
	err := sc.scan(ctx, rows, key, stage, sink{
		row: func(pos int, _ uint64, v Value) error {
			isStr, num, str, err := v.sortKey()
			if err != nil {
				return err
			}
			keys[pos] = keyed{isStr, num, str}
			return nil
		},
		col: func(lo int, vals []float64) {
			for i, f := range vals {
				keys[lo+i] = keyed{num: f}
			}
		},
	})
	if err != nil {
		return nil, err
	}
	return keys, nil
}

// sink takes the values a scan computes. row takes one row's Value, as the
// tree walker yields it. col, when set, takes the values of consecutive
// chunk-evaluated positions lo, lo+1, ... at once, as float64s: f stands
// for the Value chunkProg.value(f) that row would otherwise take, so f != 0
// is its IsTruthy, and f its AsNumber and numeric sort key.
type sink struct {
	row func(pos int, row uint64, v Value) error
	col func(lo int, vals []float64)
}

// values hands s the chunk-evaluated values of positions [lo, lo+len(vals)):
// to col at once, or else to row one by one.
func (s sink) values(p *chunkProg, stage string, rows []uint64, lo int, vals []float64) error {
	if s.col != nil {
		s.col(lo, vals)
		return nil
	}
	for i, f := range vals {
		if err := s.row(lo+i, rows[lo+i], p.value(f)); err != nil {
			return rowError(stage, rows[lo+i], err)
		}
	}
	return nil
}

// scan evaluates x for every row on a core.Walk whose steps are partitions.
// Partitions follow the chunk boundaries of the first tensor x references,
// planned a chunk at a time (chunkAlignedSpans, stripIDs); each worker
// reuses one environment (and its per-tensor ScanReaders), whose readers
// load through the handle lineage's decoded-chunk cache. So a chunk is
// fetched and decoded once per lineage, not once per stage or per query: a
// column read by WHERE and again by the sort key, or by the next query (or
// VERSION query) on the handle, is decoded once, and concurrent loads of a
// chunk shared between workers coalesce into one. When x is in the
// chunk-at-a-time subset (see chunkeval.go) and rows ascend, a worker
// evaluates its partition a batch of rows inside one chunk at a time with
// typed loops, and hands only the rows that subset cannot serve exactly to
// the row-at-a-time tree walker;
// otherwise every row goes through the walker. Either way out sees each
// position once, in position order within a partition, with the value,
// error and row the walker would have produced. out runs on worker
// goroutines with disjoint positions: it may write into shared slices at
// its positions without locking, but must not touch other positions.
// Errors are wrapped with the stage name and failing row; a failing scan
// reports the lowest failing partition's error, the one a 1-worker scan
// reports.
//
// Ownership: the arrays a row loads, and every view cut from them (v itself,
// when x is a tensor or a subscript of one), live in the worker's arena,
// which the env recycles when it moves to the next row. out.row must
// therefore reduce v to what it keeps (a bool, a number, a string) before
// it returns and never retain v or an array reached through it. A
// chunk-evaluated tensor reference arrives already reduced to its one
// element.
func (sc *scanner) scan(ctx context.Context, rows []uint64, x Expr, stage string, out sink) error {
	if len(rows) == 0 {
		return nil
	}
	// Partitions and strips follow the driver tensor's chunks, which only an
	// ascending row list can use; the chunk evaluator needs one too.
	var chunks []core.ChunkSpan
	var driver *core.Tensor
	asc := ascending(rows)
	if asc {
		if driver = scanDriver(sc.ds, x); driver != nil {
			chunks = driver.ChunkSpans()
		}
	}
	var prog *chunkProg
	if !sc.rowAtATime && asc {
		if prog = compileChunk(x); prog != nil && !prog.bind(sc.ds) {
			prog = nil
		}
	}
	spans := sc.partition(rows, chunks)
	// Prefetch: before a worker walks a partition, the chunks the scan will
	// touch are handed to the storage layer's fetch planner, so near-adjacent
	// chunk objects arrive in coalesced ranged origin requests instead of one
	// round trip each. The strips of a core.StripPlan cut across partition
	// boundaries, so chunks owned by different workers still share a
	// coalesced request; the step that runs partition i first covers the plan
	// up to that partition's last chunk, and on as far as the byte cache has
	// headroom, so later partitions find their strips in flight. Chunks the
	// handle cache holds decoded are left out (StripPlan.Skip): a repeated
	// query claims no strip and re-arms no byte-cache entry. Shape-only
	// expressions are excluded: they resolve from the shape encoder
	// (pushdown's zero-chunk-IO guarantee), so prefetching chunks for them
	// would be pure waste. Errors are counted into ScanStats, never fatal —
	// the per-row read path re-fetches and reports with row context.
	var strips *core.StripPlan
	var spanEnd []int
	if len(chunks) > 0 && (sc.rawShapes || !shapeOnly(x)) {
		var ids []uint64
		ids, spanEnd = stripIDs(chunks, rows, spans)
		strips = core.NewStripPlan(driver, ids, nil, stripWidth, sc.stats.record)
		strips.Skip = driver.ChunkCached
		defer strips.Disown() // the walk has ended every context Cover saw
	}
	// The window is every partition, so workers run as far ahead as they
	// can; a partition's results are positional, so its commit is a no-op.
	return core.Walk(ctx, sc.workers, len(spans),
		func(_ context.Context, yield func(int) bool) {
			for i := 0; i < len(spans) && yield(i); i++ {
			}
		},
		func(ctx context.Context) (func(int, *struct{}) error, func()) {
			e := sc.newWorkerEnv(ctx)
			var cw *chunkWorker
			if prog != nil {
				cw = prog.worker(e, len(rows))
			}
			return func(i int, _ *struct{}) error {
				if strips != nil {
					strips.Cover(ctx, spanEnd[i])
				}
				if cw != nil {
					return cw.run(ctx, rows, spans[i], stage, out)
				}
				for pos := spans[i].lo; pos < spans[i].hi; pos++ {
					if err := ctx.Err(); err != nil {
						return err
					}
					if err := evalRow(e, x, rows, pos, stage, out.row); err != nil {
						return err
					}
				}
				return nil
			}, e.arena.Release
		},
		func(int, struct{}, error) error { return nil })
}

// evalRow is the tree walker on one row: it repositions e on rows[pos],
// evaluates x and hands the value to sink.
func evalRow(e *env, x Expr, rows []uint64, pos int, stage string, sink func(pos int, row uint64, v Value) error) error {
	e.reset(rows[pos])
	v, err := evalExpr(e, x)
	if err == nil {
		err = sink(pos, rows[pos], v)
	}
	if err != nil {
		return rowError(stage, rows[pos], err)
	}
	return nil
}

func rowError(stage string, row uint64, err error) error {
	return fmt.Errorf("tql: %s at row %d: %w", stage, row, err)
}

func (sc *scanner) newWorkerEnv(ctx context.Context) *env {
	e := newScanEnv(ctx, sc.ds)
	e.rawShapes = sc.rawShapes
	return e
}

// stripIDs lists every distinct chunk id the scan will visit, in visit
// order, and for each partition the exclusive end of its chunks within that
// list — what a worker claiming the partition needs covered. It visits the
// ascending rows a chunk at a time, finding where each chunk's rows end by
// binary search.
func stripIDs(chunks []core.ChunkSpan, rows []uint64, spans []span) (ids []uint64, spanEnd []int) {
	spanEnd = make([]int, len(spans))
	ci, si := 0, 0
	for pos := 0; pos < len(rows); {
		for ci < len(chunks) && rows[pos] > chunks[ci].Last {
			ci++
		}
		if ci == len(chunks) {
			break
		}
		c := chunks[ci]
		end := rowsThrough(rows, pos, len(rows), c.Last)
		// Rows before c.First lie in a gap between chunks and read none.
		at := pos
		if c.First > 0 {
			at = rowsThrough(rows, pos, end, c.First-1)
		}
		if at < end {
			for ; si < len(spans) && spans[si].hi <= at; si++ {
				spanEnd[si] = len(ids)
			}
			if n := len(ids); n == 0 || ids[n-1] != c.ChunkID {
				ids = append(ids, c.ChunkID)
			}
		}
		pos = end
	}
	for ; si < len(spans); si++ {
		spanEnd[si] = len(ids)
	}
	return ids, spanEnd
}

// rowsThrough returns the first position in [lo, hi) of the ascending rows
// whose row is past last, or hi.
func rowsThrough(rows []uint64, lo, hi int, last uint64) int {
	return lo + sort.Search(hi-lo, func(i int) bool { return rows[lo+i] > last })
}

// partition splits the positions of rows into contiguous partitions aligned
// with chunks, the driver tensor's chunk layout. Without one (rows not
// ascending after ORDER BY, ARRANGE BY, ..., or an expression that touches
// no tensor) it falls back to an even split.
func (sc *scanner) partition(rows []uint64, chunks []core.ChunkSpan) []span {
	maxParts := min(sc.workers*core.Oversubscribe, len(rows))
	if maxParts <= 1 {
		return []span{{0, len(rows)}}
	}
	if len(chunks) > 0 {
		return chunkAlignedSpans(chunks, rows, maxParts)
	}
	return evenSpans(len(rows), maxParts)
}

func evenSpans(n, parts int) []span {
	out := make([]span, 0, parts)
	for p := 0; p < parts; p++ {
		lo, hi := n*p/parts, n*(p+1)/parts
		if lo < hi {
			out = append(out, span{lo, hi})
		}
	}
	return out
}

// chunkAlignedSpans cuts the ascending row positions at chunk boundaries,
// merging adjacent chunks until at most maxParts partitions remain. Cutting
// only on boundaries keeps every chunk inside exactly one partition, so no
// chunk is decoded by two workers. It visits the rows a chunk at a time, as
// stripIDs does; the rows past the last chunk form one last group.
func chunkAlignedSpans(chunks []core.ChunkSpan, rows []uint64, maxParts int) []span {
	minRows := (len(rows) + maxParts - 1) / maxParts
	var spans []span
	start, ci := 0, 0
	for pos := 0; pos < len(rows); {
		for ci < len(chunks) && rows[pos] > chunks[ci].Last {
			ci++
		}
		if pos > 0 && pos-start >= minRows {
			spans = append(spans, span{start, pos})
			start = pos
		}
		if ci == len(chunks) {
			break
		}
		pos = rowsThrough(rows, pos, len(rows), chunks[ci].Last)
	}
	if start < len(rows) {
		spans = append(spans, span{start, len(rows)})
	}
	return spans
}

// scanDriver picks the tensor whose chunk layout drives partitioning: the
// first tensor reference in the expression.
func scanDriver(ds *core.Dataset, x Expr) (found *core.Tensor) {
	inspect(x, func(n Expr) bool {
		if id, ok := n.(Ident); ok {
			found = ds.Tensor(string(id))
		}
		return found == nil
	})
	return found
}

func ascending(rows []uint64) bool {
	for i := 1; i < len(rows); i++ {
		if rows[i] < rows[i-1] {
			return false
		}
	}
	return true
}
