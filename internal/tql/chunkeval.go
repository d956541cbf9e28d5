package tql

import (
	"context"
	"encoding/binary"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/tensor"
)

// Chunk-at-a-time evaluation. §4.2 compiles TQL into tensor operations; the
// Go form is the vectorised execution of MonetDB/X100: an expression is
// compiled once per query stage and then run over a batch of rows at a time,
// each node filling a column of per-row float64 values with a typed loop,
// instead of walking the tree once per row. It applies to expressions built
// only from number and bool literals, references to stored tensors that are
// neither sequences nor links and carry no sample compression, MEAN, SUM,
// MIN and MAX of such a reference, unary - and NOT, + - * / %, the six
// comparisons, and AND/OR, evaluated over an ascending row list. The tree
// walker (evalExpr) stays the fallback and the reference.
//
// A batch is a run of a partition's rows inside one chunk of every tensor the
// expression reads (and at most batchRows long), found by binary search in
// the row list, so each tensor's ScanReader holds one chunk for the whole
// batch and its rows take no per-row locate. A stage costs a few nanoseconds
// a row plus a fixed cost per chunk and per batch:
//   - a bare reference to a chunk whose samples each hold one element, back
//     to back (core.ChunkRows.Column, decided once per chunk from its
//     directory), loads with one loop per dtype and no per-row check; any
//     other chunk is read sample by sample, checking each one's element
//     count and length;
//   - the stage takes the root's value column a run of positions at a time
//     (sink.col): WHERE's keep vector and the keys' slice fill from it, and
//     only the rows handed to the walker reach the per-row sink.
//
// Every value is exactly the tree walker's:
//   - a bool is 1 or 0, which AsNumber, IsTruthy, NOT, AND and OR read as the
//     walker reads the bool;
//   - a tensor reference is its sample's one element, and arithmetic on it is
//     the float64 arithmetic the walker's Float64 arrays store;
//   - MEAN/SUM/MIN/MAX are tensor.MeanOf/SumOf/MinOf/MaxOf, the code behind
//     NDArray's reductions.
//
// A row the batch cannot evaluate exactly goes to the tree walker instead,
// in order, through the same env and readers: rows in the write buffer, tiled
// rows, and samples whose element count or byte length the walker would
// reject or treat as an array (a reference used as a number must hold one
// element). Such a row leaves the batch's selection at the node that found
// it, so no later node touches it and no chunk is read that the walker would
// not read. AND/OR evaluate their right side only over the rows their left
// side leaves open. A chunk that fails to load stops the batch at the first
// row that needed it, the row the walker would have failed at, with the
// walker's error.

// batchRows caps a batch, bounding each worker's value columns.
const batchRows = 1024

// vop is the operation of a compiled node.
type vop uint8

const (
	vConst  vop = iota // number or bool literal
	vLeaf              // a tensor reference: the sample's one element
	vReduce            // MEAN/SUM/MIN/MAX of a tensor reference
	vNeg
	vNot
	vArith // + - * / %
	vCmp   // == != < <= > >=
	vAnd
	vOr
)

// vnode is one node of a compiled expression; id indexes the worker's value
// columns.
type vnode struct {
	op   vop
	kind valueKind // the kind of the walker's Value: kindNum, kindBool or kindArr
	id   int
	name string // operator or reduction
	num  float64
	slot int // vLeaf/vReduce: index into chunkProg.tensors
	l, r *vnode
}

// chunkProg is an expression compiled for chunk-at-a-time evaluation.
type chunkProg struct {
	x     Expr
	root  *vnode
	nodes int
	// names lists the tensors the expression reads, one slot each; bind
	// resolves them.
	names   []string
	tensors []*core.Tensor
	dtypes  []tensor.Dtype
	spans   [][]core.ChunkSpan
}

// compileChunk compiles x, or returns nil when x uses anything outside the
// chunk-at-a-time subset. It looks at the expression only; bind checks the
// tensors.
func compileChunk(x Expr) *chunkProg {
	p := &chunkProg{x: x}
	if p.root = p.compile(x); p.root == nil {
		return nil
	}
	return p
}

func (p *chunkProg) node(n vnode) *vnode {
	n.id = p.nodes
	p.nodes++
	return &n
}

func (p *chunkProg) slot(name string) int {
	for i, n := range p.names {
		if n == name {
			return i
		}
	}
	p.names = append(p.names, name)
	return len(p.names) - 1
}

func (p *chunkProg) compile(x Expr) *vnode {
	switch n := x.(type) {
	case NumberLit:
		return p.node(vnode{op: vConst, kind: kindNum, num: float64(n)})
	case BoolLit:
		return p.node(vnode{op: vConst, kind: kindBool, num: b2f(bool(n))})
	case Ident:
		return p.node(vnode{op: vLeaf, kind: kindArr, slot: p.slot(string(n))})
	case Call:
		switch n.Name {
		case "MEAN", "SUM", "MIN", "MAX":
			if len(n.Args) != 1 {
				return nil
			}
			if id, ok := n.Args[0].(Ident); ok {
				return p.node(vnode{op: vReduce, kind: kindNum, name: n.Name, slot: p.slot(string(id))})
			}
		}
	case Unary:
		l := p.compile(n.X)
		switch {
		case l == nil:
		case n.Op == "-":
			kind := kindNum
			if l.kind == kindArr {
				kind = kindArr
			}
			return p.node(vnode{op: vNeg, kind: kind, l: l})
		case n.Op == "NOT":
			return p.node(vnode{op: vNot, kind: kindBool, l: l})
		}
	case Binary:
		l, r := p.compile(n.L), p.compile(n.R)
		if l == nil || r == nil {
			return nil
		}
		nd := vnode{name: n.Op, l: l, r: r}
		switch n.Op {
		case "AND", "OR":
			nd.op, nd.kind = vAnd, kindBool
			if n.Op == "OR" {
				nd.op = vOr
			}
		case "==", "!=", "<", "<=", ">", ">=":
			nd.op, nd.kind = vCmp, kindBool
		case "+", "-", "*", "/", "%":
			nd.op, nd.kind = vArith, kindNum
			if l.kind == kindArr || r.kind == kindArr {
				if n.Op == "%" {
					return nil // the walker's error: % is not defined on arrays
				}
				nd.kind = kindArr
			}
		default:
			return nil
		}
		return p.node(nd)
	}
	return nil
}

// bind resolves the tensors of a compiled expression in ds and reports
// whether every one can be read a chunk at a time. It snapshots their chunk
// spans, which cut the batches.
func (p *chunkProg) bind(ds *core.Dataset) bool {
	for _, name := range p.names {
		t := ds.Tensor(name)
		if t == nil || t.Htype().Sequence || t.Htype().Link || t.Meta().SampleCompression != "none" || !t.Dtype().Valid() {
			return false
		}
		p.tensors = append(p.tensors, t)
		p.dtypes = append(p.dtypes, t.Dtype())
		p.spans = append(p.spans, t.ChunkSpans())
	}
	return true
}

// value is the Value the tree walker hands a sink for a root value f. A
// tensor reference, and arithmetic on one, the walker yields as a
// one-element array; it becomes its element here, which IsTruthy, AsNumber
// and sortKey — all a sink may do with a Value — read the same way.
func (p *chunkProg) value(f float64) Value {
	if p.root.kind == kindBool {
		return boolVal(f != 0)
	}
	return numVal(f)
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// chunkWorker is one scan worker's chunk-at-a-time state. It shares the
// worker's env, and so its ScanReaders, with the tree walker.
type chunkWorker struct {
	p       *chunkProg
	e       *env
	readers []*core.ScanReader
	cursor  []int // per tensor, the chunk span of the current batch

	// The current batch: its rows, each node's value column, the AND/OR
	// nodes' selections, the rows handed to the walker, and cap, the batch
	// position a failed chunk load stopped it at (capErr).
	rows   []uint64
	vals   [][]float64
	sels   [][]int32
	sel    []int32
	walk   []bool
	cap    int
	capErr error
	// cuts counts changes to walk and cap, so a node re-prunes a selection
	// only when a child dropped rows from the batch.
	cuts int
}

func (p *chunkProg) worker(e *env, size int) *chunkWorker {
	size = min(size, batchRows)
	w := &chunkWorker{
		p:      p,
		e:      e,
		cursor: make([]int, len(p.tensors)),
		vals:   make([][]float64, p.nodes),
		sels:   make([][]int32, p.nodes),
		sel:    make([]int32, size),
		walk:   make([]bool, size),
	}
	for _, t := range p.tensors {
		w.readers = append(w.readers, e.reader(t))
	}
	flat := make([]float64, p.nodes*size)
	for i := range w.vals {
		w.vals[i] = flat[i*size : (i+1)*size : (i+1)*size]
	}
	return w
}

// run evaluates the partition sp of rows batch by batch, handing each
// row's value to out in position order.
func (w *chunkWorker) run(ctx context.Context, rows []uint64, sp span, stage string, out sink) error {
	for s, spans := range w.p.spans {
		w.cursor[s] = sort.Search(len(spans), func(c int) bool { return spans[c].Last >= rows[sp.lo] })
	}
	for lo := sp.lo; lo < sp.hi; {
		if err := ctx.Err(); err != nil {
			return err
		}
		hi := w.batchEnd(rows, lo, sp.hi)
		if err := w.batch(ctx, rows, lo, hi, stage, out); err != nil {
			return err
		}
		lo = hi
	}
	return nil
}

// batchEnd returns the end of the batch starting at position lo: the first
// later position whose row lies past the current chunk of some tensor, found
// by binary search in the ascending rows.
func (w *chunkWorker) batchEnd(rows []uint64, lo, hi int) int {
	limit := uint64(math.MaxUint64)
	for s, spans := range w.p.spans {
		c := w.cursor[s]
		for c < len(spans) && spans[c].Last < rows[lo] {
			c++
		}
		w.cursor[s] = c
		if c < len(spans) {
			limit = min(limit, spans[c].Last)
		}
	}
	return rowsThrough(rows, lo+1, min(hi, lo+len(w.sel)), limit)
}

// batch evaluates positions [lo, hi) and hands their values to out: each
// run of chunk-evaluated positions as one column, and each row handed to
// the walker on its own.
func (w *chunkWorker) batch(ctx context.Context, rows []uint64, lo, hi int, stage string, out sink) error {
	n := hi - lo
	w.rows = rows[lo:hi]
	w.cap, w.capErr = n, nil
	walk := w.walk[:n]
	clear(walk)
	sel := w.sel[:n]
	for i := range sel {
		sel[i] = int32(i)
	}
	w.eval(ctx, w.p.root, sel)
	vals := w.vals[w.p.root.id]
	for i := 0; i < w.cap; {
		if walk[i] {
			if err := evalRow(w.e, w.p.x, rows, lo+i, stage, out.row); err != nil {
				return err
			}
			i++
			continue
		}
		j := i + 1
		for j < w.cap && !walk[j] {
			j++
		}
		if err := out.values(w.p, stage, rows, lo+i, vals[i:j]); err != nil {
			return err
		}
		i = j
	}
	if w.capErr != nil {
		return rowError(stage, w.rows[w.cap], w.capErr)
	}
	return nil
}

// live drops from sel, in place, the rows that have left the batch: those
// handed to the walker and those at or past the cap.
func (w *chunkWorker) live(sel []int32) []int32 {
	out := sel[:0]
	for _, i := range sel {
		if int(i) < w.cap && !w.walk[i] {
			out = append(out, i)
		}
	}
	return out
}

// eval fills nd's value column at the batch positions sel (ascending, all
// live) and returns the positions of sel still live afterwards, in place.
// Callers use only the returned selection.
func (w *chunkWorker) eval(ctx context.Context, nd *vnode, sel []int32) []int32 {
	out := w.vals[nd.id]
	switch nd.op {
	case vConst:
		for _, i := range sel {
			out[i] = nd.num
		}
	case vLeaf, vReduce:
		return w.load(ctx, nd, sel)
	case vNeg:
		sel = w.eval(ctx, nd.l, sel)
		x := w.vals[nd.l.id]
		for _, i := range sel {
			out[i] = -x[i]
		}
	case vNot:
		sel = w.eval(ctx, nd.l, sel)
		x := w.vals[nd.l.id]
		for _, i := range sel {
			out[i] = b2f(x[i] == 0)
		}
	case vArith, vCmp:
		sel = w.eval(ctx, nd.l, sel)
		sel = w.eval(ctx, nd.r, sel)
		binaryLoop(nd.name, out, w.vals[nd.l.id], w.vals[nd.r.id], sel)
	case vAnd, vOr:
		sel = w.eval(ctx, nd.l, sel)
		x := w.vals[nd.l.id]
		// The right side runs only where the left one leaves the answer
		// open: true for AND, false for OR.
		open, settled := nd.op == vAnd, b2f(nd.op == vOr)
		sub := w.sels[nd.id][:0]
		for _, i := range sel {
			if (x[i] != 0) == open {
				sub = append(sub, i)
			} else {
				out[i] = settled
			}
		}
		cuts := w.cuts
		sub = w.eval(ctx, nd.r, sub)
		w.sels[nd.id] = sub[:0]
		y := w.vals[nd.r.id]
		for _, i := range sub {
			out[i] = b2f(y[i] != 0)
		}
		if w.cuts != cuts {
			sel = w.live(sel)
		}
	}
	return sel
}

// binaryLoop is one typed loop per operator over the selected positions.
func binaryLoop(op string, out, x, y []float64, sel []int32) {
	switch op {
	case "+":
		for _, i := range sel {
			out[i] = x[i] + y[i]
		}
	case "-":
		for _, i := range sel {
			out[i] = x[i] - y[i]
		}
	case "*":
		for _, i := range sel {
			out[i] = x[i] * y[i]
		}
	case "/":
		for _, i := range sel {
			out[i] = x[i] / y[i]
		}
	case "%":
		for _, i := range sel {
			out[i] = math.Mod(x[i], y[i])
		}
	case "==":
		for _, i := range sel {
			out[i] = b2f(x[i] == y[i])
		}
	case "!=":
		for _, i := range sel {
			out[i] = b2f(x[i] != y[i])
		}
	case "<":
		for _, i := range sel {
			out[i] = b2f(x[i] < y[i])
		}
	case "<=":
		for _, i := range sel {
			out[i] = b2f(x[i] <= y[i])
		}
	case ">":
		for _, i := range sel {
			out[i] = b2f(x[i] > y[i])
		}
	case ">=":
		for _, i := range sel {
			out[i] = b2f(x[i] >= y[i])
		}
	}
}

// load fills a tensor leaf's column from the batch's chunk of its tensor:
// with one typed loop when the chunk's samples are a column of single
// elements (core.ChunkRows.Column) and the node is a bare reference, else
// sample by sample, handing the walker each sample it cannot read exactly.
func (w *chunkWorker) load(ctx context.Context, nd *vnode, sel []int32) []int32 {
	if len(sel) == 0 {
		return sel
	}
	ch, ok, err := w.readers[nd.slot].Chunk(ctx, w.rows[sel[0]])
	if err != nil {
		w.cap, w.capErr = int(sel[0]), err
		w.cuts++
		return sel[:0]
	}
	if !ok {
		for _, i := range sel {
			w.walk[i] = true
		}
		w.cuts++
		return sel[:0]
	}
	d := w.p.dtypes[nd.slot]
	out := w.vals[nd.id]
	// Rows ascend, so the last selected row bounds them all.
	if nd.op == vLeaf && ch.Column != nil && w.rows[sel[len(sel)-1]]-ch.First < uint64(len(ch.Column)/d.Size()) {
		gather(d, out, ch.Column, w.rows, ch.First, sel)
		return sel
	}
	kept := sel[:0]
	for _, i := range sel {
		k := w.rows[i] - ch.First
		if k >= uint64(len(ch.Samples)) {
			w.walk[i] = true
			continue
		}
		s := ch.Samples[k]
		n := 1
		for _, dim := range s.Shape {
			n *= dim
		}
		if len(s.Data) != n*d.Size() || (nd.op == vLeaf && n != 1) {
			w.walk[i] = true
			continue
		}
		out[i] = reduce(nd, d, s.Data)
		kept = append(kept, i)
	}
	if len(kept) != len(sel) {
		w.cuts++
	}
	return kept
}

// gather sets out[i], for each selected batch position i, to the element
// of row rows[i] in col, a column of dtype d elements starting at row
// first: one loop per dtype, each element loaded as tensor.Dtype.Load does.
func gather(d tensor.Dtype, out []float64, col []byte, rows []uint64, first uint64, sel []int32) {
	switch d {
	case tensor.Bool:
		for _, i := range sel {
			out[i] = b2f(col[rows[i]-first] != 0)
		}
	case tensor.UInt8:
		for _, i := range sel {
			out[i] = float64(col[rows[i]-first])
		}
	case tensor.Int8:
		for _, i := range sel {
			out[i] = float64(int8(col[rows[i]-first]))
		}
	case tensor.UInt16:
		for _, i := range sel {
			out[i] = float64(binary.LittleEndian.Uint16(col[2*(rows[i]-first):]))
		}
	case tensor.Int16:
		for _, i := range sel {
			out[i] = float64(int16(binary.LittleEndian.Uint16(col[2*(rows[i]-first):])))
		}
	case tensor.UInt32:
		for _, i := range sel {
			out[i] = float64(binary.LittleEndian.Uint32(col[4*(rows[i]-first):]))
		}
	case tensor.Int32:
		for _, i := range sel {
			out[i] = float64(int32(binary.LittleEndian.Uint32(col[4*(rows[i]-first):])))
		}
	case tensor.Float32:
		for _, i := range sel {
			out[i] = float64(math.Float32frombits(binary.LittleEndian.Uint32(col[4*(rows[i]-first):])))
		}
	case tensor.UInt64:
		for _, i := range sel {
			out[i] = float64(binary.LittleEndian.Uint64(col[8*(rows[i]-first):]))
		}
	case tensor.Int64:
		for _, i := range sel {
			out[i] = float64(int64(binary.LittleEndian.Uint64(col[8*(rows[i]-first):])))
		}
	case tensor.Float64:
		for _, i := range sel {
			out[i] = math.Float64frombits(binary.LittleEndian.Uint64(col[8*(rows[i]-first):]))
		}
	}
}

// reduce is a leaf's value for one sample's bytes.
func reduce(nd *vnode, d tensor.Dtype, b []byte) float64 {
	if nd.op == vLeaf {
		return d.Load(b)
	}
	switch nd.name {
	case "MEAN":
		return tensor.MeanOf(d, b)
	case "SUM":
		return tensor.SumOf(d, b)
	case "MIN":
		return tensor.MinOf(d, b)
	}
	return tensor.MaxOf(d, b)
}
