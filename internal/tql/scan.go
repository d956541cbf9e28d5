package tql

import (
	"context"
	"fmt"
	"runtime"
	"sync"
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
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// stripWidth is the chunk count per prefetch strip. At the 8–16MB chunk band
// a strip is ~128–256MB of lookahead split across a handful of coalesced
// ranged requests — deep enough to keep 16 workers fed, shallow enough that
// shedding one strip loses seconds, not the scan.
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

// oversubscribe controls how many partitions each worker gets on average:
// more partitions smooth out skew in per-chunk cost (compressed chunks,
// cache hits vs misses) at slightly more scheduling overhead.
const oversubscribe = 4

// span is a half-open range [lo, hi) of positions in a row slice.
type span struct{ lo, hi int }

// scanner evaluates expressions over many rows through a bounded worker
// pool, partitioning work along chunk boundaries.
type scanner struct {
	ds      *core.Dataset
	workers int
	// rawShapes bypasses the shape encoder (Options.disablePushdown).
	rawShapes bool
	stats     *ScanStats
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
	err := sc.eval(ctx, rows, pred, "WHERE", func(pos int, _ uint64, v Value) error {
		keep[pos] = v.IsTruthy()
		return nil
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
	err := sc.eval(ctx, rows, key, stage, func(pos int, _ uint64, v Value) error {
		isStr, num, str, err := v.sortKey()
		if err != nil {
			return err
		}
		keys[pos] = keyed{isStr, num, str}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return keys, nil
}

// eval evaluates x once per row across the worker pool. Partitions follow
// the chunk boundaries of the first tensor x references; each worker reuses
// one environment (and its per-tensor ScanReaders), so a partition fetches
// and decodes every chunk it covers at most once, and concurrent fetches of
// a chunk shared between workers coalesce in the provider chain. sink runs
// on worker goroutines with disjoint positions: it may write into shared
// slices at pos without locking, but must not touch other positions. Errors
// are wrapped with the stage name and failing row.
//
// Ownership: the arrays a row loads, and every view cut from them (v itself,
// when x is a tensor or a subscript of one), live in the worker's arena,
// which the env recycles when it moves to the next row. sink must therefore
// reduce v to what it keeps (a bool, a number, a string) before it returns
// and never retain v or an array reached through it.
func (sc *scanner) eval(ctx context.Context, rows []uint64, x Expr, stage string, sink func(pos int, row uint64, v Value) error) error {
	if len(rows) == 0 {
		return nil
	}
	spans := sc.partition(x, rows)
	workers := sc.workers
	if workers > len(spans) {
		workers = len(spans)
	}
	// Prefetch: before a worker walks a partition, the chunks the scan will
	// touch are handed to the storage layer's fetch planner, so near-adjacent
	// chunk objects arrive in coalesced ranged origin requests instead of one
	// round trip each. The strips of a core.StripPlan cut across partition
	// boundaries, so chunks owned by different workers still share a
	// coalesced request; a worker claiming partition i covers the plan up to
	// that partition's last chunk, which is usually a no-op or one strip, and
	// a worker that skips ahead issues the strips for everything in between,
	// which the slower workers then find in flight. Shape-only expressions
	// are excluded: they resolve from the shape encoder (pushdown's
	// zero-chunk-IO guarantee), so prefetching chunks for them would be pure
	// waste. Errors are counted into ScanStats, never fatal — the per-row
	// read path re-fetches and reports with row context.
	var strips *core.StripPlan
	var spanEnd []int
	if driver := scanDriver(sc.ds, x); driver != nil && ascending(rows) && (sc.rawShapes || !shapeOnly(x)) {
		if chunks := driver.ChunkSpans(); len(chunks) > 0 {
			var ids []uint64
			ids, spanEnd = stripIDs(chunks, rows, spans)
			strips = core.NewStripPlan(driver, ids, nil, stripWidth, sc.stats.record)
		}
	}
	evalSpan := func(ctx context.Context, e *env, i int) error {
		if strips != nil {
			strips.Cover(ctx, spanEnd[i])
		}
		sp := spans[i]
		for pos := sp.lo; pos < sp.hi; pos++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			e.reset(rows[pos])
			v, err := evalExpr(e, x)
			if err == nil {
				err = sink(pos, rows[pos], v)
			}
			if err != nil {
				return fmt.Errorf("tql: %s at row %d: %w", stage, rows[pos], err)
			}
		}
		return nil
	}
	if workers <= 1 {
		e := sc.newWorkerEnv(ctx)
		defer e.arena.Release()
		for i := range spans {
			if err := evalSpan(ctx, e, i); err != nil {
				return err
			}
		}
		return nil
	}
	scanCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		wg       sync.WaitGroup
		nextSpan atomic.Int64
		errOnce  sync.Once
		firstErr error
	)
	fail := func(err error) {
		errOnce.Do(func() {
			firstErr = err
			cancel()
		})
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e := sc.newWorkerEnv(scanCtx)
			defer e.arena.Release()
			for {
				i := int(nextSpan.Add(1)) - 1
				if i >= len(spans) {
					return
				}
				if err := evalSpan(scanCtx, e, i); err != nil {
					fail(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}

func (sc *scanner) newWorkerEnv(ctx context.Context) *env {
	e := newScanEnv(ctx, sc.ds)
	e.rawShapes = sc.rawShapes
	return e
}

// stripIDs lists every distinct chunk id the scan will visit, in visit
// order, and for each partition the exclusive end of its chunks within that
// list — what a worker claiming the partition needs covered.
func stripIDs(chunks []core.ChunkSpan, rows []uint64, spans []span) (ids []uint64, spanEnd []int) {
	spanEnd = make([]int, len(spans))
	ci, si := 0, 0
	for pos, row := range rows {
		for si < len(spans) && pos >= spans[si].hi {
			spanEnd[si] = len(ids)
			si++
		}
		for ci < len(chunks) && row > chunks[ci].Last {
			ci++
		}
		if ci >= len(chunks) {
			break
		}
		if row < chunks[ci].First {
			continue
		}
		if n := len(ids); n == 0 || ids[n-1] != chunks[ci].ChunkID {
			ids = append(ids, chunks[ci].ChunkID)
		}
	}
	for ; si < len(spans); si++ {
		spanEnd[si] = len(ids)
	}
	return ids, spanEnd
}

// partition splits the positions of rows into contiguous partitions aligned
// with the chunk boundaries of the first tensor x references. Row lists that
// are not ascending (after ORDER BY, ARRANGE BY, ...) and expressions that
// touch no tensor fall back to an even split.
func (sc *scanner) partition(x Expr, rows []uint64) []span {
	maxParts := sc.workers * oversubscribe
	if maxParts > len(rows) {
		maxParts = len(rows)
	}
	if maxParts <= 1 {
		return []span{{0, len(rows)}}
	}
	if spans := sc.chunkAlignedSpans(x, rows, maxParts); spans != nil {
		return spans
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

// chunkAlignedSpans cuts the row positions at the driver tensor's chunk
// boundaries, merging adjacent chunks until at most maxParts partitions
// remain. Cutting only on boundaries keeps every chunk inside exactly one
// partition, so no chunk is decoded by two workers.
func (sc *scanner) chunkAlignedSpans(x Expr, rows []uint64, maxParts int) []span {
	driver := scanDriver(sc.ds, x)
	if driver == nil {
		return nil
	}
	chunks := driver.ChunkSpans()
	if len(chunks) == 0 || !ascending(rows) {
		return nil
	}
	minRows := (len(rows) + maxParts - 1) / maxParts
	var spans []span
	start, ci := 0, 0
	prevChunk := -1
	for pos, row := range rows {
		for ci < len(chunks) && row > chunks[ci].Last {
			ci++
		}
		if prevChunk >= 0 && ci != prevChunk && pos-start >= minRows {
			spans = append(spans, span{start, pos})
			start = pos
		}
		prevChunk = ci
	}
	if start < len(rows) {
		spans = append(spans, span{start, len(rows)})
	}
	return spans
}

// scanDriver picks the tensor whose chunk layout drives partitioning: the
// first tensor reference in the expression.
func scanDriver(ds *core.Dataset, x Expr) *core.Tensor {
	var found *core.Tensor
	var walk func(Expr) bool
	walk = func(x Expr) bool {
		switch n := x.(type) {
		case Ident:
			if t := ds.Tensor(string(n)); t != nil {
				found = t
				return true
			}
		case Unary:
			return walk(n.X)
		case Binary:
			return walk(n.L) || walk(n.R)
		case ArrayLit:
			for _, el := range n {
				if walk(el) {
					return true
				}
			}
		case Call:
			for _, a := range n.Args {
				if walk(a) {
					return true
				}
			}
		case Index:
			if walk(n.X) {
				return true
			}
			for _, s := range n.Specs {
				for _, e := range []Expr{s.Point, s.Lo, s.Hi} {
					if e != nil && walk(e) {
						return true
					}
				}
			}
		}
		return false
	}
	if x != nil {
		walk(x)
	}
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
