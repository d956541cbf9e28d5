package tensor

import (
	"fmt"
	"math"
)

// Numeric kernels backing TQL's array expressions (§4.4: "TQL extends SQL
// with numeric computations on top of multi-dimensional columns"). All
// kernels return new arrays; inputs are never mutated.

// Map applies f elementwise, producing a Float64 array of the same shape.
func (a *NDArray) Map(f func(float64) float64) *NDArray {
	out := MustNew(Float64, a.shape...)
	for i, n := 0, a.Len(); i < n; i++ {
		out.setFlat(i, f(a.getFlat(i)))
	}
	return out
}

// AsType casts to another dtype (with saturation for integers).
func (a *NDArray) AsType(d Dtype) (*NDArray, error) {
	if !d.Valid() {
		return nil, fmt.Errorf("tensor: invalid target dtype")
	}
	out, err := New(d, a.shape...)
	if err != nil {
		return nil, err
	}
	for i, n := 0, a.Len(); i < n; i++ {
		out.setFlat(i, a.getFlat(i))
	}
	return out, nil
}

// binop applies f elementwise over two arrays of identical shape, or
// broadcasts when either operand is a scalar (size-1) array.
func binop(a, b *NDArray, f func(x, y float64) float64) (*NDArray, error) {
	switch {
	case a.Len() == 1 && b.Len() != 1:
		x := a.getFlat(0)
		return b.Map(func(y float64) float64 { return f(x, y) }), nil
	case b.Len() == 1:
		y := b.getFlat(0)
		return a.Map(func(x float64) float64 { return f(x, y) }), nil
	}
	if !sameShape(a.shape, b.shape) {
		return nil, fmt.Errorf("tensor: shape mismatch %v vs %v", a.shape, b.shape)
	}
	out := MustNew(Float64, a.shape...)
	for i, n := 0, a.Len(); i < n; i++ {
		out.setFlat(i, f(a.getFlat(i), b.getFlat(i)))
	}
	return out, nil
}

func sameShape(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Add returns a + b elementwise (scalar broadcasting allowed).
func (a *NDArray) Add(b *NDArray) (*NDArray, error) {
	return binop(a, b, func(x, y float64) float64 { return x + y })
}

// Sub returns a - b elementwise.
func (a *NDArray) Sub(b *NDArray) (*NDArray, error) {
	return binop(a, b, func(x, y float64) float64 { return x - y })
}

// Mul returns a * b elementwise.
func (a *NDArray) Mul(b *NDArray) (*NDArray, error) {
	return binop(a, b, func(x, y float64) float64 { return x * y })
}

// Div returns a / b elementwise; division by zero yields ±Inf like NumPy.
func (a *NDArray) Div(b *NDArray) (*NDArray, error) {
	return binop(a, b, func(x, y float64) float64 { return x / y })
}

// The whole-array reductions below accumulate in float64 in element order,
// one loadBlock at a time, so their results are those of a getFlat loop bit
// for bit; only Sum (and Mean through it) has a shortcut, intSum, and only
// where that is exact. Sum, Mean, Min and Max are SumOf, MeanOf, MinOf and
// MaxOf over the array's buffer, which a caller holding a raw stored sample
// reduces without wrapping it in an array.

// Sum reduces over all elements.
func (a *NDArray) Sum() float64 { return SumOf(a.dtype, a.data) }

// Mean reduces over all elements; the mean of an empty array is NaN.
func (a *NDArray) Mean() float64 { return MeanOf(a.dtype, a.data) }

// Min reduces over all elements; Min of an empty array is +Inf.
func (a *NDArray) Min() float64 { return MinOf(a.dtype, a.data) }

// Max reduces over all elements; Max of an empty array is -Inf.
func (a *NDArray) Max() float64 { return MaxOf(a.dtype, a.data) }

// elems is the element count of a dtype-d buffer.
func elems(d Dtype, b []byte) int {
	if sz := d.Size(); sz > 0 {
		return len(b) / sz
	}
	return 0
}

// SumOf sums the elements of b, a little-endian buffer of dtype d.
func SumOf(d Dtype, b []byte) float64 {
	if s, ok := intSum(d, b); ok {
		return float64(s)
	}
	var s float64
	var buf [blockElems]float64
	for off, n := 0, elems(d, b); off < n; off += blockElems {
		for _, v := range loadBlock(d, b, buf[:], off) {
			s += v
		}
	}
	return s
}

// MeanOf is the mean of the elements of b, a little-endian buffer of dtype
// d; NaN when b is empty.
func MeanOf(d Dtype, b []byte) float64 {
	n := elems(d, b)
	if n == 0 {
		return math.NaN()
	}
	return SumOf(d, b) / float64(n)
}

// MinOf is the least element of b, a little-endian buffer of dtype d; +Inf
// when b is empty.
func MinOf(d Dtype, b []byte) float64 {
	m := math.Inf(1)
	var buf [blockElems]float64
	for off, n := 0, elems(d, b); off < n; off += blockElems {
		for _, v := range loadBlock(d, b, buf[:], off) {
			if v < m {
				m = v
			}
		}
	}
	return m
}

// MaxOf is the greatest element of b, a little-endian buffer of dtype d;
// -Inf when b is empty.
func MaxOf(d Dtype, b []byte) float64 {
	m := math.Inf(-1)
	var buf [blockElems]float64
	for off, n := 0, elems(d, b); off < n; off += blockElems {
		for _, v := range loadBlock(d, b, buf[:], off) {
			if v > m {
				m = v
			}
		}
	}
	return m
}

// Any reports whether any element is non-zero.
func (a *NDArray) Any() bool {
	var buf [blockElems]float64
	for off, n := 0, a.Len(); off < n; off += blockElems {
		for _, v := range loadBlock(a.dtype, a.data, buf[:], off) {
			if v != 0 {
				return true
			}
		}
	}
	return false
}

// All reports whether all elements are non-zero; All of an empty array is
// true, matching NumPy.
func (a *NDArray) All() bool {
	var buf [blockElems]float64
	for off, n := 0, a.Len(); off < n; off += blockElems {
		for _, v := range loadBlock(a.dtype, a.data, buf[:], off) {
			if v == 0 {
				return false
			}
		}
	}
	return true
}

// Clip limits all elements to [lo, hi], returning Float64.
func (a *NDArray) Clip(lo, hi float64) *NDArray {
	return a.Map(func(v float64) float64 {
		if v < lo {
			return lo
		}
		if v > hi {
			return hi
		}
		return v
	})
}

// L2 returns the Euclidean norm over all elements.
func (a *NDArray) L2() float64 {
	var s float64
	var buf [blockElems]float64
	for off, n := 0, a.Len(); off < n; off += blockElems {
		for _, v := range loadBlock(a.dtype, a.data, buf[:], off) {
			s += v * v
		}
	}
	return math.Sqrt(s)
}

// Dot returns the inner product of two equal-length arrays (flattened),
// used by embedding-similarity queries.
func (a *NDArray) Dot(b *NDArray) (float64, error) {
	if a.Len() != b.Len() {
		return 0, fmt.Errorf("tensor: dot length mismatch %d vs %d", a.Len(), b.Len())
	}
	var s float64
	var abuf, bbuf [blockElems]float64
	for off, n := 0, a.Len(); off < n; off += blockElems {
		ys := loadBlock(b.dtype, b.data, bbuf[:], off)
		for i, x := range loadBlock(a.dtype, a.data, abuf[:], off) {
			s += x * ys[i]
		}
	}
	return s, nil
}

// CosineSimilarity returns the cosine of the angle between two flattened
// arrays; zero-norm inputs yield 0.
func (a *NDArray) CosineSimilarity(b *NDArray) (float64, error) {
	d, err := a.Dot(b)
	if err != nil {
		return 0, err
	}
	na, nb := a.L2(), b.L2()
	if na == 0 || nb == 0 {
		return 0, nil
	}
	return d / (na * nb), nil
}

// ReduceMean averages along a single axis, dropping it (NumPy's
// a.mean(axis=k)), which backs TQL's dimension projections.
func (a *NDArray) ReduceMean(axis int) (*NDArray, error) {
	return a.reduce(axis, func(acc, v float64) float64 { return acc + v }, func(acc float64, n int) float64 { return acc / float64(n) })
}

// ReduceSum sums along a single axis, dropping it.
func (a *NDArray) ReduceSum(axis int) (*NDArray, error) {
	return a.reduce(axis, func(acc, v float64) float64 { return acc + v }, func(acc float64, n int) float64 { return acc })
}

// ReduceMax takes the max along a single axis, dropping it.
func (a *NDArray) ReduceMax(axis int) (*NDArray, error) {
	out, err := a.reduceInit(axis, math.Inf(-1), math.Max)
	return out, err
}

// ReduceMin takes the min along a single axis, dropping it.
func (a *NDArray) ReduceMin(axis int) (*NDArray, error) {
	out, err := a.reduceInit(axis, math.Inf(1), math.Min)
	return out, err
}

func (a *NDArray) reduce(axis int, step func(acc, v float64) float64, fin func(acc float64, n int) float64) (*NDArray, error) {
	out, err := a.reduceInit(axis, 0, step)
	if err != nil {
		return nil, err
	}
	if fin != nil {
		n := a.shape[normAxis(axis, len(a.shape))]
		for i := 0; i < out.Len(); i++ {
			out.setFlat(i, fin(out.getFlat(i), n))
		}
	}
	return out, nil
}

func normAxis(axis, ndim int) int {
	if axis < 0 {
		return axis + ndim
	}
	return axis
}

func (a *NDArray) reduceInit(axis int, init float64, step func(acc, v float64) float64) (*NDArray, error) {
	nd := len(a.shape)
	axis = normAxis(axis, nd)
	if axis < 0 || axis >= nd {
		return nil, fmt.Errorf("tensor: axis %d out of range for %d-d array", axis, nd)
	}
	outShape := make([]int, 0, nd-1)
	outShape = append(outShape, a.shape[:axis]...)
	outShape = append(outShape, a.shape[axis+1:]...)
	out, err := New(Float64, outShape...)
	if err != nil {
		return nil, err
	}
	for i := 0; i < out.Len(); i++ {
		out.setFlat(i, init)
	}
	// outer = product of dims before axis, inner = product after.
	outer, inner := 1, 1
	for _, d := range a.shape[:axis] {
		outer *= d
	}
	for _, d := range a.shape[axis+1:] {
		inner *= d
	}
	k := a.shape[axis]
	for o := 0; o < outer; o++ {
		for j := 0; j < k; j++ {
			base := (o*k + j) * inner
			outBase := o * inner
			for in := 0; in < inner; in++ {
				cur := out.getFlat(outBase + in)
				out.setFlat(outBase+in, step(cur, a.getFlat(base+in)))
			}
		}
	}
	return out, nil
}

// stackLayout validates that the arrays share one dtype and shape and
// returns the stacked output shape plus the per-array byte stride.
func stackLayout(arrays []*NDArray) ([]int, int, error) {
	if len(arrays) == 0 {
		return nil, 0, fmt.Errorf("tensor: stack of zero arrays")
	}
	first := arrays[0]
	for _, a := range arrays[1:] {
		if a.dtype != first.dtype || !sameShape(a.shape, first.shape) {
			return nil, 0, fmt.Errorf("tensor: stack mismatch: %v vs %v", first, a)
		}
	}
	outShape := append([]int{len(arrays)}, first.shape...)
	return outShape, first.NumBytes(), nil
}

// Stack concatenates arrays of identical shape and dtype along a new
// leading axis, the collation step of the dataloader (§4.6).
func Stack(arrays []*NDArray) (*NDArray, error) {
	outShape, stride, err := stackLayout(arrays)
	if err != nil {
		return nil, err
	}
	out, err := New(arrays[0].dtype, outShape...)
	if err != nil {
		return nil, err
	}
	for i, a := range arrays {
		copy(out.data[i*stride:(i+1)*stride], a.data)
	}
	return out, nil
}

// StackInto is Stack with the output's backing array supplied by the
// caller: buf must hold exactly len(arrays) x the per-array byte size, and
// the returned array wraps it without copying — the dataloader's collator
// draws buf from a per-pipeline arena so steady-state batch assembly stops
// allocating a fresh backing array per batch. The same validation as Stack
// applies; the caller keeps ownership of buf's lifetime (the batch holds it
// until the consumer drops the batch).
func StackInto(arrays []*NDArray, buf []byte) (*NDArray, error) {
	outShape, stride, err := stackLayout(arrays)
	if err != nil {
		return nil, err
	}
	if want := stride * len(arrays); len(buf) != want {
		return nil, fmt.Errorf("tensor: stack buffer holds %d bytes, want %d", len(buf), want)
	}
	for i, a := range arrays {
		copy(buf[i*stride:(i+1)*stride], a.data)
	}
	return FromBytes(arrays[0].dtype, outShape, buf)
}
