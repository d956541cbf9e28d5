package tql

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/tensor"
	"repro/internal/view"
)

// Plan is the compiled logical plan of a query: an ordered list of stages
// the scheduler executes (§4.4: "The query plan generates a computational
// graph of tensor operations. Then the scheduler executes the query
// graph").
type Plan struct {
	Query  *Query
	stages []string
}

// Explain renders the plan stages, one per line.
func (p *Plan) Explain() string { return strings.Join(p.stages, "\n") }

// Compile builds the logical plan for a parsed query.
func Compile(q *Query) (*Plan, error) {
	p := &Plan{Query: q}
	src := q.From
	if src == "" {
		src = "<bound dataset>"
	}
	if q.Version != "" {
		p.stages = append(p.stages, fmt.Sprintf("scan %s @ version %s [chunk-partitioned]", src, q.Version))
	} else {
		p.stages = append(p.stages, "scan "+src+" [chunk-partitioned]")
	}
	if touchesChunkData(q) {
		p.stages = append(p.stages, "prefetch chunk strips [cross-partition coalesced origin fetch]")
	}
	// A stage scanner.scan runs goes a chunk at a time when its expression is
	// in the chunk-at-a-time subset, the rows still arrive in stored order
	// (no ORDER, GROUP or ARRANGE BY before it), and the tensors it reads
	// turn out to be raw numeric ones.
	inOrder := true
	chunked := func(x Expr) string {
		if inOrder && compileChunk(x) != nil {
			return " [chunk-at-a-time over raw numeric tensors]"
		}
		return ""
	}
	if q.Where != nil {
		shapeConj, dataConj := splitConjuncts(q.Where)
		// pushdown tags a shape-only predicate with how scanner.filterShapes
		// evaluates it.
		pushdown := func(x Expr) string {
			checks := "one check per shape run when runs average Workers rows or more, else per row"
			if names, row := shapeRefs(x); row || len(names) == 0 {
				checks = "one check per row"
			}
			return " [shape-encoder pushdown: no chunk IO but a read of a sequence row whose items differ in shape; " + checks + "]"
		}
		switch {
		case len(dataConj) == 0:
			p.stages = append(p.stages, "filter "+q.Where.String()+pushdown(q.Where))
		case len(shapeConj) > 0:
			p.stages = append(p.stages, "prefilter "+andAll(shapeConj).String()+pushdown(andAll(shapeConj)))
			p.stages = append(p.stages, "filter "+andAll(dataConj).String()+" [parallel chunk scan]"+chunked(andAll(dataConj)))
		default:
			p.stages = append(p.stages, "filter "+q.Where.String()+" [parallel chunk scan]"+chunked(q.Where))
		}
	}
	if q.OrderBy != nil {
		dir := "asc"
		if q.OrderDesc {
			dir = "desc"
		}
		top := ""
		if k := topK(q); k >= 0 {
			top = fmt.Sprintf(" [top-k: keeps the %d least (key, position)]", k)
		}
		p.stages = append(p.stages, fmt.Sprintf("order by %s %s", q.OrderBy, dir)+chunked(q.OrderBy)+top)
		inOrder = false
	}
	if q.GroupBy != nil {
		p.stages = append(p.stages, "group by "+q.GroupBy.String()+chunked(q.GroupBy))
		inOrder = false
	}
	if q.ArrangeBy != nil {
		p.stages = append(p.stages, "arrange by "+q.ArrangeBy.String()+" [round-robin class balancing]"+chunked(q.ArrangeBy))
		inOrder = false
	}
	if q.SampleBy != nil {
		p.stages = append(p.stages, "weighted sample by "+q.SampleBy.String()+chunked(q.SampleBy))
	}
	if q.Offset > 0 || q.Limit >= 0 {
		p.stages = append(p.stages, fmt.Sprintf("limit %d offset %d", q.Limit, q.Offset))
	}
	if q.Star {
		p.stages = append(p.stages, "project *")
	} else {
		parts := make([]string, len(q.Selectors))
		for i, s := range q.Selectors {
			parts[i] = s.String()
		}
		p.stages = append(p.stages, "project "+strings.Join(parts, ", "))
	}
	return p, nil
}

// touchesChunkData reports whether executing q will read sample data from
// chunks — the condition under which the scan engine prefetches chunk
// strips ahead of its workers. Shape-only filters stay answerable from the
// shape encoder alone, so a plan made purely of them gets no prefetch
// stage.
func touchesChunkData(q *Query) bool {
	for _, x := range []Expr{q.Where, q.OrderBy, q.GroupBy, q.ArrangeBy, q.SampleBy} {
		if x == nil {
			continue
		}
		if _, data := splitConjuncts(x); len(data) > 0 {
			return true
		}
	}
	return false
}

// shapeOnly reports whether an expression touches sample data only through
// SHAPE/NDIM/LEN/SIZE of bare tensor references, meaning the filter can run
// entirely off the shape encoder.
func shapeOnly(x Expr) bool {
	switch n := x.(type) {
	case NumberLit, StringLit, BoolLit:
		return true
	case Ident:
		return false // raw tensor reference loads data
	case Unary:
		return shapeOnly(n.X)
	case Binary:
		return shapeOnly(n.L) && shapeOnly(n.R)
	case ArrayLit:
		for _, el := range n {
			if !shapeOnly(el) {
				return false
			}
		}
		return true
	case Call:
		switch n.Name {
		case "SHAPE", "NDIM", "LEN", "SIZE":
			if len(n.Args) == 1 {
				if _, ok := n.Args[0].(Ident); ok {
					return true
				}
			}
			return false
		case "ROW":
			return true
		default:
			return false
		}
	case Index:
		if !shapeOnly(n.X) {
			return false
		}
		// Subscripts are expressions too: SHAPE(x)[MEAN(y)] loads data.
		for _, s := range n.Specs {
			for _, e := range []Expr{s.Point, s.Lo, s.Hi} {
				if e != nil && !shapeOnly(e) {
					return false
				}
			}
		}
		return true
	}
	return false
}

// Run parses, compiles and executes a query against a dataset, returning
// the result as a view.
func Run(ctx context.Context, ds *core.Dataset, src string) (*view.View, error) {
	return RunWith(ctx, ds, src, Options{})
}

// RunWith is Run with explicit execution options.
func RunWith(ctx context.Context, ds *core.Dataset, src string, opts Options) (*view.View, error) {
	q, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return ExecuteWith(ctx, ds, q, opts)
}

// knownFunctions is the builtin library (§4.4).
var knownFunctions = map[string]bool{
	"SHAPE": true, "NDIM": true, "LEN": true, "SIZE": true, "ROW": true,
	"TEXT": true, "MEAN": true, "SUM": true, "MIN": true, "MAX": true,
	"L2": true, "ANY": true, "ALL": true, "ABS": true, "SQRT": true,
	"CLIP": true, "CONTAINS": true, "DOT": true, "COSINE_SIMILARITY": true,
	"IOU": true, "NORMALIZE": true,
}

// validateExpr rejects unknown functions before execution.
func validateExpr(x Expr) (err error) {
	inspect(x, func(n Expr) bool {
		if c, ok := n.(Call); ok && !knownFunctions[c.Name] {
			err = fmt.Errorf("tql: unknown function %q", c.Name)
		}
		return err == nil
	})
	return err
}

func validateQuery(q *Query) error {
	exprs := []Expr{q.Where, q.GroupBy, q.OrderBy, q.ArrangeBy, q.SampleBy}
	for _, sel := range q.Selectors {
		exprs = append(exprs, sel.Expr)
	}
	for _, e := range exprs {
		if e == nil {
			continue
		}
		if err := validateExpr(e); err != nil {
			return err
		}
	}
	return nil
}

// ExecuteWith runs a parsed query through the chunk-partitioned parallel
// scan engine. WHERE's leading shape-only conjuncts become a shape-encoder
// prefilter (no chunk IO but for a sequence row whose items differ in
// shape; one check per shape run on the caller's goroutine when runs are
// long, see scanner.filterShapes) with the remainder evaluated only over
// the prefilter's survivors, which, like every key evaluation, fans out across
// Options.Workers with chunk-aligned partitions and positional merges, so
// results are byte-identical for any worker count. ORDER BY with a LIMIT
// and no later GROUP, ARRANGE or SAMPLE BY keeps only the OFFSET+LIMIT
// first rows of the order (topK). Each of those evaluations
// runs a chunk at a time — typed loops over a batch of rows inside one
// decoded chunk — when its expression and the tensors it reads allow it (see
// scanner.scan), and row at a time through the tree walker otherwise, with
// the same results either way.
func ExecuteWith(ctx context.Context, ds *core.Dataset, q *Query, opts Options) (*view.View, error) {
	if err := validateQuery(q); err != nil {
		return nil, err
	}
	if q.Version != "" {
		var err error
		ds, err = ds.ReadAtVersion(ctx, q.Version)
		if err != nil {
			return nil, err
		}
	}
	sc := &scanner{
		ds:         ds,
		workers:    opts.workers(),
		rawShapes:  opts.disablePushdown,
		rowAtATime: opts.rowAtATime,
		stats:      opts.Stats,
	}
	n := ds.NumRows()
	rows := make([]uint64, n)
	for i := range rows {
		rows[i] = uint64(i)
	}
	// Filter: leading shape-only conjuncts first (shape-encoder pushdown),
	// then the remainder over the surviving rows.
	if q.Where != nil {
		shapeConj, dataConj := splitConjuncts(q.Where)
		if opts.disablePushdown {
			shapeConj, dataConj = nil, []Expr{q.Where}
		}
		var err error
		if pre := andAll(shapeConj); pre != nil {
			if rows, err = sc.filterShapes(ctx, rows, pre); err != nil {
				return nil, err
			}
		}
		if rest := andAll(dataConj); rest != nil {
			if rows, err = sc.filter(ctx, rows, rest); err != nil {
				return nil, err
			}
		}
	}
	// Order: the first topK(q) rows, or every row.
	if q.OrderBy != nil {
		var err error
		if rows, err = sortRows(ctx, sc, rows, q.OrderBy, q.OrderDesc, topK(q)); err != nil {
			return nil, err
		}
	}
	// Group (stable, so ORDER BY survives within groups).
	if q.GroupBy != nil {
		var err error
		if rows, err = sortRows(ctx, sc, rows, q.GroupBy, false, -1); err != nil {
			return nil, err
		}
	}
	// Arrange: round-robin interleave across key groups.
	if q.ArrangeBy != nil {
		var err error
		rows, err = arrangeRows(ctx, sc, rows, q.ArrangeBy)
		if err != nil {
			return nil, err
		}
	}
	// Weighted sampling.
	if q.SampleBy != nil {
		var err error
		rows, err = sampleRows(ctx, sc, rows, q)
		if err != nil {
			return nil, err
		}
	}
	// Offset / limit.
	if q.Offset > 0 {
		if q.Offset >= len(rows) {
			rows = nil
		} else {
			rows = rows[q.Offset:]
		}
	}
	if q.Limit >= 0 && q.Limit < len(rows) {
		rows = rows[:q.Limit]
	}
	// Projection.
	columns, err := buildColumns(ds, q)
	if err != nil {
		return nil, err
	}
	return view.New(ds, rows, columns), nil
}

// topK is how many leading rows of ORDER BY's order a query keeps, OFFSET
// plus LIMIT, when nothing after the sort reorders or draws from its rows
// (no GROUP, ARRANGE or SAMPLE BY); -1 when it needs them all.
func topK(q *Query) int {
	if q.Limit < 0 || q.GroupBy != nil || q.ArrangeBy != nil || q.SampleBy != nil {
		return -1
	}
	if q.Offset > math.MaxInt-q.Limit {
		return math.MaxInt
	}
	return q.Offset + q.Limit
}

// sortRows stably sorts rows by key and returns them, or, with k >= 0, only
// the first k of that order. Keys are batch-evaluated through the parallel
// scanner into a slice parallel to rows (duplicate row indices get their
// own entries), so every row's key is evaluated, and fails, as in a full
// sort.
func sortRows(ctx context.Context, sc *scanner, rows []uint64, key Expr, desc bool, k int) ([]uint64, error) {
	keys, err := sc.keys(ctx, rows, key, "sort key")
	if err != nil {
		return nil, err
	}
	return sortByKeys(rows, keys, desc, k), nil
}

// sortByKeys stably sorts rows by keys, its parallel slice, in place and
// returns them, or, with 0 <= k < len(rows), only the first k of that
// order.
func sortByKeys(rows []uint64, keys []keyed, desc bool, k int) []uint64 {
	if k < 0 || k > len(rows) {
		k = len(rows)
	}
	// Numeric keys without NaN are ordered, so (key, position) is their one
	// stable order, which pdqsort reaches over compact entries without the
	// merge sort's rotations; a max-heap of the k least over one pass keeps
	// the sort to those k (top-k: O(n log k)). Any other key list keeps the
	// merge sort, comparison for comparison: NaN is unordered, and which
	// stable order comes out then depends on the algorithm.
	type numEntry struct {
		num float64
		pos int
	}
	ents := make([]numEntry, 0, len(keys))
	for i, key := range keys {
		if key.isStr || math.IsNaN(key.num) {
			ents = nil
			break
		}
		if desc {
			key.num = -key.num
		}
		ents = append(ents, numEntry{key.num, i})
	}
	sorted := make([]uint64, k)
	if ents != nil {
		cmp := func(a, b numEntry) int {
			switch {
			case a.num < b.num:
				return -1
			case a.num > b.num:
				return 1
			}
			return a.pos - b.pos
		}
		if k < len(ents) {
			heap := ents[:k]
			// down restores the max-heap below i.
			down := func(i int) {
				for {
					c := 2*i + 1
					if c >= len(heap) {
						return
					}
					if c+1 < len(heap) && cmp(heap[c], heap[c+1]) < 0 {
						c++
					}
					if cmp(heap[i], heap[c]) >= 0 {
						return
					}
					heap[i], heap[c] = heap[c], heap[i]
					i = c
				}
			}
			for i := k/2 - 1; i >= 0; i-- {
				down(i)
			}
			for _, e := range ents[k:] {
				if k > 0 && cmp(e, heap[0]) < 0 {
					heap[0] = e
					down(0)
				}
			}
			ents = heap
		}
		slices.SortFunc(ents, cmp)
		for i, e := range ents {
			sorted[i] = rows[e.pos]
		}
	} else {
		ord := make([]int, len(rows))
		for i := range ord {
			ord[i] = i
		}
		slices.SortStableFunc(ord, func(i, j int) int {
			a, b := keys[i], keys[j]
			if desc {
				a, b = b, a
			}
			if a.less(b) {
				return -1
			}
			return 0
		})
		for i, o := range ord[:k] {
			sorted[i] = rows[o]
		}
	}
	copy(rows, sorted)
	return rows[:k]
}

// arrangeRows groups rows by key (first-appearance group order) and
// interleaves the groups round-robin, producing a class-balanced stream.
func arrangeRows(ctx context.Context, sc *scanner, rows []uint64, key Expr) ([]uint64, error) {
	keys, err := sc.keys(ctx, rows, key, "arrange key")
	if err != nil {
		return nil, err
	}
	type group struct {
		rows []uint64
	}
	order := []string{}
	groups := map[string]*group{}
	for pos, r := range rows {
		k := keys[pos].str
		if !keys[pos].isStr {
			k = fmt.Sprintf("n:%g", keys[pos].num)
		}
		g, ok := groups[k]
		if !ok {
			g = &group{}
			groups[k] = g
			order = append(order, k)
		}
		g.rows = append(g.rows, r)
	}
	out := make([]uint64, 0, len(rows))
	for len(out) < len(rows) {
		progressed := false
		for _, k := range order {
			g := groups[k]
			if len(g.rows) == 0 {
				continue
			}
			out = append(out, g.rows[0])
			g.rows = g.rows[1:]
			progressed = true
		}
		if !progressed {
			break
		}
	}
	return out, nil
}

// sampleRows draws a weighted sample without replacement using exponential
// keys (Efraimidis-Spirakis), deterministic per query text so results are
// reproducible across runs and worker counts: weights are batch-evaluated
// in parallel, then the random keys are drawn in one serial pass.
func sampleRows(ctx context.Context, sc *scanner, rows []uint64, q *Query) ([]uint64, error) {
	weights := make([]float64, len(rows))
	err := sc.scan(ctx, rows, q.SampleBy, "sample weight", sink{
		row: func(pos int, _ uint64, v Value) error {
			w, err := v.AsNumber()
			if err != nil {
				return err
			}
			weights[pos] = w
			return nil
		},
		col: func(lo int, vals []float64) { copy(weights[lo:], vals) },
	})
	if err != nil {
		return nil, err
	}
	h := fnv.New64a()
	h.Write([]byte(q.String()))
	rng := rand.New(rand.NewSource(int64(h.Sum64())))
	type keyedRow struct {
		row uint64
		key float64
	}
	keys := make([]keyedRow, 0, len(rows))
	for pos, r := range rows {
		w := weights[pos]
		if w <= 0 {
			continue
		}
		keys = append(keys, keyedRow{row: r, key: -math.Log(rng.Float64()) / w})
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].key < keys[j].key })
	out := make([]uint64, len(keys))
	for i, k := range keys {
		out[i] = k.row
	}
	return out, nil
}

// buildColumns converts selectors into view columns. A bare tensor
// reference becomes an identity column (streamed raw, decode deferred to
// the loader); anything else becomes a computed column evaluated per row.
func buildColumns(ds *core.Dataset, q *Query) ([]view.Column, error) {
	if q.Star {
		return nil, nil // view.New expands nil to all visible tensors
	}
	seen := map[string]bool{}
	var out []view.Column
	for i, sel := range q.Selectors {
		name := sel.Alias
		if id, ok := sel.Expr.(Ident); ok {
			if ds.Tensor(string(id)) == nil {
				return nil, fmt.Errorf("tql: unknown tensor %q", id)
			}
			if name == "" {
				name = string(id)
			}
			if seen[name] {
				return nil, fmt.Errorf("tql: duplicate output column %q", name)
			}
			seen[name] = true
			out = append(out, view.Column{Name: name, Source: string(id)})
			continue
		}
		if name == "" {
			name = fmt.Sprintf("col%d", i)
		}
		if seen[name] {
			return nil, fmt.Errorf("tql: duplicate output column %q", name)
		}
		seen[name] = true
		expr := sel.Expr
		out = append(out, view.Column{
			Name: name,
			Eval: func(ctx context.Context, row uint64) (*tensor.NDArray, error) {
				v, err := evalExpr(newEnv(ctx, ds, row), expr)
				if err != nil {
					return nil, err
				}
				return v.AsArray()
			},
		})
	}
	return out, nil
}
