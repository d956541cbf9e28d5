package tql

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/chunk"
	"repro/internal/core"
	"repro/internal/tensor"
)

// Value is a runtime TQL value.
type Value struct {
	kind valueKind
	num  float64
	str  string
	arr  *tensor.NDArray
	b    bool
}

type valueKind int

const (
	kindNum valueKind = iota
	kindStr
	kindArr
	kindBool
)

func numVal(f float64) Value         { return Value{kind: kindNum, num: f} }
func strVal(s string) Value          { return Value{kind: kindStr, str: s} }
func arrVal(a *tensor.NDArray) Value { return Value{kind: kindArr, arr: a} }
func boolVal(b bool) Value           { return Value{kind: kindBool, b: b} }

// IsTruthy interprets the value as a predicate result.
func (v Value) IsTruthy() bool {
	switch v.kind {
	case kindBool:
		return v.b
	case kindNum:
		return v.num != 0
	case kindStr:
		return v.str != ""
	case kindArr:
		return v.arr != nil && v.arr.Any()
	}
	return false
}

// AsNumber coerces to a float64 when possible.
func (v Value) AsNumber() (float64, error) {
	switch v.kind {
	case kindNum:
		return v.num, nil
	case kindBool:
		if v.b {
			return 1, nil
		}
		return 0, nil
	case kindArr:
		if v.arr.Len() == 1 {
			return v.arr.Item()
		}
		return 0, fmt.Errorf("tql: array of %d elements is not a scalar", v.arr.Len())
	case kindStr:
		return 0, fmt.Errorf("tql: string %q is not a number", v.str)
	}
	return 0, fmt.Errorf("tql: not a number")
}

// AsArray coerces to an NDArray; scalars become 0-d arrays, strings become
// uint8 text arrays.
func (v Value) AsArray() (*tensor.NDArray, error) {
	switch v.kind {
	case kindArr:
		return v.arr, nil
	case kindNum:
		return tensor.Scalar(tensor.Float64, v.num), nil
	case kindBool:
		if v.b {
			return tensor.Scalar(tensor.Bool, 1), nil
		}
		return tensor.Scalar(tensor.Bool, 0), nil
	case kindStr:
		return tensor.FromString(v.str), nil
	}
	return nil, fmt.Errorf("tql: not an array")
}

// sortKey produces a comparable key for ORDER/GROUP/ARRANGE BY.
func (v Value) sortKey() (isStr bool, num float64, str string, err error) {
	switch v.kind {
	case kindStr:
		return true, 0, v.str, nil
	default:
		n, err := v.AsNumber()
		if err != nil {
			return false, 0, "", fmt.Errorf("tql: sort key must be scalar or string: %w", err)
		}
		return false, n, "", nil
	}
}

// env provides per-row name resolution with caching. Tensor loads are lazy:
// a WHERE over labels never touches image chunks (pushdown by laziness).
type env struct {
	ctx context.Context
	ds  *core.Dataset
	row uint64

	mu    sync.Mutex
	cache map[string]*tensor.NDArray

	// readers, when non-nil, serve data loads through per-tensor
	// ScanReaders so consecutive rows of one chunk fetch and decode it
	// once. Scan workers own one env each and reposition it with reset;
	// per-call envs (view columns) leave readers nil.
	readers map[string]*core.ScanReader
	// arena, set with readers, backs every array the readers decode. reset
	// recycles it, so a row's arrays die with the row (see scanner.scan).
	arena *chunk.Arena
	// rawShapes resolves SHAPE/NDIM/LEN/SIZE from decoded sample data
	// instead of the shape encoder (Options.disablePushdown).
	rawShapes bool
}

func newEnv(ctx context.Context, ds *core.Dataset, row uint64) *env {
	return &env{ctx: ctx, ds: ds, row: row, cache: map[string]*tensor.NDArray{}}
}

// newScanEnv returns a reusable worker environment with chunk-granular read
// reuse enabled; reset repositions it before each row.
func newScanEnv(ctx context.Context, ds *core.Dataset) *env {
	return &env{
		ctx:     ctx,
		ds:      ds,
		cache:   map[string]*tensor.NDArray{},
		readers: map[string]*core.ScanReader{},
		arena:   chunk.NewArena(),
	}
}

// reset repositions the env on a row, keeping the tensor readers (and their
// decoded chunks) while dropping the per-row value cache and recycling the
// buffers of the arrays that were in it.
func (e *env) reset(row uint64) {
	e.mu.Lock()
	e.row = row
	clear(e.cache)
	if e.arena != nil {
		e.arena.Reset()
	}
	e.mu.Unlock()
}

// lookupTensor resolves name to the row's sample array.
func (e *env) lookupTensor(name string) (*tensor.NDArray, error) {
	e.mu.Lock()
	if arr, ok := e.cache[name]; ok {
		e.mu.Unlock()
		return arr, nil
	}
	e.mu.Unlock()
	t := e.ds.Tensor(name)
	if t == nil {
		return nil, fmt.Errorf("tql: unknown tensor %q", name)
	}
	var (
		arr *tensor.NDArray
		err error
	)
	if t.Htype().Link {
		url, lerr := t.LinkAt(e.ctx, e.row)
		if lerr != nil {
			return nil, lerr
		}
		arr = tensor.FromString(url)
	} else if e.readers != nil {
		arr, err = e.reader(t).At(e.ctx, e.row)
		if err != nil {
			return nil, err
		}
	} else {
		arr, err = t.At(e.ctx, e.row)
		if err != nil {
			return nil, err
		}
	}
	e.mu.Lock()
	e.cache[name] = arr
	e.mu.Unlock()
	return arr, nil
}

// reader returns the scan env's ScanReader of t, creating it on first use.
// The chunk-at-a-time evaluator reads through the same readers, so a row it
// hands back to the tree walker finds the chunk already loaded.
func (e *env) reader(t *core.Tensor) *core.ScanReader {
	r := e.readers[t.Name()]
	if r == nil {
		r = t.NewScanReader()
		r.SetArena(e.arena)
		e.readers[t.Name()] = r
	}
	return r
}

// shapeOf resolves a row's shape through the shape encoder without chunk
// IO (§3.4 fast shape queries). A sequence row whose items have no one
// shape (or which has none) is read instead, so its shape, or its error, is
// the decoded path's.
func (e *env) shapeOf(name string) ([]int, error) {
	t := e.ds.Tensor(name)
	if t == nil {
		return nil, fmt.Errorf("tql: unknown tensor %q", name)
	}
	shape, ok, err := t.RowShape(e.row)
	if err != nil || ok {
		return shape, err
	}
	arr, err := e.lookupTensor(name)
	if err != nil {
		return nil, err
	}
	return arr.Shape(), nil
}
