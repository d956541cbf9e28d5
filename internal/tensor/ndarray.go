package tensor

import (
	"encoding/binary"
	"fmt"
	"math"
	"strings"
)

// NDArray is a C-contiguous n-dimensional array over a flat byte buffer,
// the unit of data exchanged between the storage format, the query engine,
// and the dataloader. The paper takes NumPy arrays as its fundamental block
// (§7); NDArray is the Go equivalent.
type NDArray struct {
	dtype Dtype
	shape []int
	data  []byte
}

// New allocates a zeroed array.
func New(dtype Dtype, shape ...int) (*NDArray, error) {
	n, err := checkShape(dtype, shape)
	if err != nil {
		return nil, err
	}
	return &NDArray{dtype: dtype, shape: append([]int(nil), shape...), data: make([]byte, n*dtype.Size())}, nil
}

// MustNew is New for statically-known-good arguments; it panics on error.
func MustNew(dtype Dtype, shape ...int) *NDArray {
	a, err := New(dtype, shape...)
	if err != nil {
		panic(err)
	}
	return a
}

// FromBytes wraps an existing buffer without copying. The buffer length must
// equal the product of shape times the element size.
func FromBytes(dtype Dtype, shape []int, data []byte) (*NDArray, error) {
	n, err := checkShape(dtype, shape)
	if err != nil {
		return nil, err
	}
	if len(data) != n*dtype.Size() {
		return nil, fmt.Errorf("tensor: buffer %d bytes, shape %v of %s needs %d", len(data), shape, dtype, n*dtype.Size())
	}
	return &NDArray{dtype: dtype, shape: append([]int(nil), shape...), data: data}, nil
}

// FromFloat64s builds an array of the given dtype from float64 values in
// row-major order.
func FromFloat64s(dtype Dtype, shape []int, values []float64) (*NDArray, error) {
	a, err := New(dtype, shape...)
	if err != nil {
		return nil, err
	}
	if len(values) != a.Len() {
		return nil, fmt.Errorf("tensor: %d values for shape %v (%d elements)", len(values), shape, a.Len())
	}
	for i, v := range values {
		a.setFlat(i, v)
	}
	return a, nil
}

// FromInt64s builds an array of the given dtype from int64 values.
func FromInt64s(dtype Dtype, shape []int, values []int64) (*NDArray, error) {
	f := make([]float64, len(values))
	for i, v := range values {
		f[i] = float64(v)
	}
	return FromFloat64s(dtype, shape, f)
}

// Scalar wraps a single value as a 0-dimensional array.
func Scalar(dtype Dtype, v float64) *NDArray {
	a := MustNew(dtype)
	a.setFlat(0, v)
	return a
}

// FromString encodes a UTF-8 string as a 1-D uint8 array, the storage
// representation of text htype samples.
func FromString(s string) *NDArray {
	a, _ := FromBytes(UInt8, []int{len(s)}, []byte(s))
	return a
}

// AsString decodes a 1-D uint8 array back into a string.
func (a *NDArray) AsString() string { return string(a.data) }

func checkShape(dtype Dtype, shape []int) (int, error) {
	if !dtype.Valid() {
		return 0, fmt.Errorf("tensor: invalid dtype")
	}
	n := 1
	for _, d := range shape {
		if d < 0 {
			return 0, fmt.Errorf("tensor: negative dimension in shape %v", shape)
		}
		n *= d
	}
	return n, nil
}

// Dtype returns the element type.
func (a *NDArray) Dtype() Dtype { return a.dtype }

// Shape returns the dimension sizes. Callers must not mutate it.
func (a *NDArray) Shape() []int { return a.shape }

// NDim returns the number of dimensions.
func (a *NDArray) NDim() int { return len(a.shape) }

// Len returns the number of elements.
func (a *NDArray) Len() int {
	n := 1
	for _, d := range a.shape {
		n *= d
	}
	return n
}

// NumBytes returns the byte length of the backing buffer.
func (a *NDArray) NumBytes() int { return len(a.data) }

// Bytes exposes the backing buffer. Callers must treat it as read-only
// unless they own the array.
func (a *NDArray) Bytes() []byte { return a.data }

// Clone returns a deep copy.
func (a *NDArray) Clone() *NDArray {
	data := make([]byte, len(a.data))
	copy(data, a.data)
	out, _ := FromBytes(a.dtype, a.shape, data)
	return out
}

// Reshape returns a view with a new shape of equal element count. The
// backing buffer is shared.
func (a *NDArray) Reshape(shape ...int) (*NDArray, error) {
	n, err := checkShape(a.dtype, shape)
	if err != nil {
		return nil, err
	}
	if n != a.Len() {
		return nil, fmt.Errorf("tensor: cannot reshape %v (%d elems) to %v (%d elems)", a.shape, a.Len(), shape, n)
	}
	return &NDArray{dtype: a.dtype, shape: append([]int(nil), shape...), data: a.data}, nil
}

// strides returns element strides (not byte strides) for the shape.
func (a *NDArray) strides() []int {
	s := make([]int, len(a.shape))
	acc := 1
	for i := len(a.shape) - 1; i >= 0; i-- {
		s[i] = acc
		acc *= a.shape[i]
	}
	return s
}

func (a *NDArray) flatIndex(idx []int) (int, error) {
	if len(idx) != len(a.shape) {
		return 0, fmt.Errorf("tensor: %d indices for %d-d array", len(idx), len(a.shape))
	}
	flat := 0
	for i, x := range idx {
		if x < 0 {
			x += a.shape[i]
		}
		if x < 0 || x >= a.shape[i] {
			return 0, fmt.Errorf("tensor: index %d out of bounds for axis %d (size %d)", idx[i], i, a.shape[i])
		}
		flat = flat*a.shape[i] + x
	}
	return flat, nil
}

// At returns the element at the given indices as float64. Negative indices
// count from the end of the axis.
func (a *NDArray) At(idx ...int) (float64, error) {
	flat, err := a.flatIndex(idx)
	if err != nil {
		return 0, err
	}
	return a.getFlat(flat), nil
}

// SetAt stores v (cast to the array dtype) at the given indices.
func (a *NDArray) SetAt(v float64, idx ...int) error {
	flat, err := a.flatIndex(idx)
	if err != nil {
		return err
	}
	a.setFlat(flat, v)
	return nil
}

// Item returns the sole element of a size-1 array.
func (a *NDArray) Item() (float64, error) {
	if a.Len() != 1 {
		return 0, fmt.Errorf("tensor: Item on array with %d elements", a.Len())
	}
	return a.getFlat(0), nil
}

// Float64s returns all elements as float64 in row-major order.
func (a *NDArray) Float64s() []float64 {
	out := make([]float64, a.Len())
	for i := range out {
		out[i] = a.getFlat(i)
	}
	return out
}

// getFlat reads element i as float64.
func (a *NDArray) getFlat(i int) float64 {
	sz := a.dtype.Size()
	b := a.data[i*sz:]
	switch a.dtype {
	case Bool:
		if b[0] != 0 {
			return 1
		}
		return 0
	case UInt8:
		return float64(b[0])
	case UInt16:
		return float64(binary.LittleEndian.Uint16(b))
	case UInt32:
		return float64(binary.LittleEndian.Uint32(b))
	case UInt64:
		return float64(binary.LittleEndian.Uint64(b))
	case Int8:
		return float64(int8(b[0]))
	case Int16:
		return float64(int16(binary.LittleEndian.Uint16(b)))
	case Int32:
		return float64(int32(binary.LittleEndian.Uint32(b)))
	case Int64:
		return float64(int64(binary.LittleEndian.Uint64(b)))
	case Float32:
		return float64(math.Float32frombits(binary.LittleEndian.Uint32(b)))
	case Float64:
		return math.Float64frombits(binary.LittleEndian.Uint64(b))
	}
	return 0
}

// blockElems is how many elements the reductions convert at a time: small
// enough for the float64 scratch to live on the stack, large enough that the
// dtype switch in loadBlock is paid once per few hundred elements.
const blockElems = 256

// loadBlock converts the elements starting at flat index off into dst,
// exactly as getFlat would one by one, and returns the filled prefix of dst
// (shorter than dst only at the end of the array). The whole-array
// reductions walk an array through it; getFlat stays the accessor of the
// elementwise and per-axis kernels and the reference the tests compare
// loadBlock against.
func (a *NDArray) loadBlock(dst []float64, off int) []float64 {
	sz := a.dtype.Size()
	if sz == 0 {
		return dst[:0]
	}
	if n := len(a.data)/sz - off; n < len(dst) {
		dst = dst[:n]
	}
	b := a.data[off*sz:]
	le := binary.LittleEndian
	switch a.dtype {
	case Bool:
		for i := range dst {
			dst[i] = 0
			if b[i] != 0 {
				dst[i] = 1
			}
		}
	case UInt8:
		for i := range dst {
			dst[i] = float64(b[i])
		}
	case Int8:
		for i := range dst {
			dst[i] = float64(int8(b[i]))
		}
	case UInt16:
		for i := range dst {
			dst[i] = float64(le.Uint16(b[i*2:]))
		}
	case Int16:
		for i := range dst {
			dst[i] = float64(int16(le.Uint16(b[i*2:])))
		}
	case UInt32:
		for i := range dst {
			dst[i] = float64(le.Uint32(b[i*4:]))
		}
	case Int32:
		for i := range dst {
			dst[i] = float64(int32(le.Uint32(b[i*4:])))
		}
	case Float32:
		for i := range dst {
			dst[i] = float64(math.Float32frombits(le.Uint32(b[i*4:])))
		}
	case UInt64:
		for i := range dst {
			dst[i] = float64(le.Uint64(b[i*8:]))
		}
	case Int64:
		for i := range dst {
			dst[i] = float64(int64(le.Uint64(b[i*8:])))
		}
	case Float64:
		for i := range dst {
			dst[i] = math.Float64frombits(le.Uint64(b[i*8:]))
		}
	}
	return dst
}

// intSum returns the sum of a bool or 8/16/32-bit integer array accumulated
// in an int64, and ok=false for every other dtype and for arrays so long
// that length x largest magnitude reaches 2^53. Below that bound every
// partial sum of the float64 loop is an exactly representable integer, so
// float64(sum) is bit-identical to it — at an add per element instead of a
// convert and a dependent float add.
func (a *NDArray) intSum() (sum int64, ok bool) {
	var maxAbs int64
	switch a.dtype {
	case Bool:
		maxAbs = 1
	case UInt8:
		maxAbs = math.MaxUint8
	case Int8:
		maxAbs = -math.MinInt8
	case UInt16:
		maxAbs = math.MaxUint16
	case Int16:
		maxAbs = -math.MinInt16
	case UInt32:
		maxAbs = math.MaxUint32
	case Int32:
		maxAbs = -math.MinInt32
	default:
		return 0, false
	}
	b := a.data
	if int64(len(b)/a.dtype.Size()) > (1<<53-1)/maxAbs {
		return 0, false
	}
	le := binary.LittleEndian
	switch a.dtype {
	case Bool:
		for _, v := range b {
			if v != 0 {
				sum++
			}
		}
	case UInt8:
		for _, v := range b {
			sum += int64(v)
		}
	case Int8:
		for _, v := range b {
			sum += int64(int8(v))
		}
	case UInt16:
		for ; len(b) >= 2; b = b[2:] {
			sum += int64(le.Uint16(b))
		}
	case Int16:
		for ; len(b) >= 2; b = b[2:] {
			sum += int64(int16(le.Uint16(b)))
		}
	case UInt32:
		for ; len(b) >= 4; b = b[4:] {
			sum += int64(le.Uint32(b))
		}
	case Int32:
		for ; len(b) >= 4; b = b[4:] {
			sum += int64(int32(le.Uint32(b)))
		}
	}
	return sum, true
}

// setFlat writes v at element i, casting to the array dtype.
func (a *NDArray) setFlat(i int, v float64) {
	sz := a.dtype.Size()
	b := a.data[i*sz:]
	bits := clampToDtype(v, a.dtype)
	switch sz {
	case 1:
		b[0] = byte(bits)
	case 2:
		binary.LittleEndian.PutUint16(b, uint16(bits))
	case 4:
		binary.LittleEndian.PutUint32(b, uint32(bits))
	case 8:
		binary.LittleEndian.PutUint64(b, bits)
	}
}

// Range selects [Start, Stop) along one axis; Stop == End selects to the
// end of the axis. Negative bounds count from the end.
type Range struct {
	Start, Stop int
}

// End marks an open upper bound in a Range.
const End = int(^uint(0) >> 1) // MaxInt

// All selects an entire axis.
func All() Range { return Range{0, End} }

// resolve normalizes r against an axis of size n.
func (r Range) resolve(n int) (lo, hi int, err error) {
	lo, hi = r.Start, r.Stop
	if lo < 0 {
		lo += n
	}
	if hi != End && hi < 0 {
		hi += n
	}
	if hi == End || hi > n {
		hi = n
	}
	if lo < 0 || lo > n || hi < lo {
		return 0, 0, fmt.Errorf("tensor: range [%d:%d) invalid for axis of size %d", r.Start, r.Stop, n)
	}
	return lo, hi, nil
}

// Slice copies the sub-array selected by ranges, one per leading axis;
// trailing axes not covered by ranges are taken whole. This implements the
// Python-style images[100:500, 100:500, 0:2] indexing TQL exposes (§4.4).
func (a *NDArray) Slice(ranges ...Range) (*NDArray, error) {
	if len(ranges) > len(a.shape) {
		return nil, fmt.Errorf("tensor: %d ranges for %d-d array", len(ranges), len(a.shape))
	}
	los := make([]int, len(a.shape))
	his := make([]int, len(a.shape))
	outShape := make([]int, len(a.shape))
	for i := range a.shape {
		r := All()
		if i < len(ranges) {
			r = ranges[i]
		}
		lo, hi, err := r.resolve(a.shape[i])
		if err != nil {
			return nil, err
		}
		los[i], his[i] = lo, hi
		outShape[i] = hi - lo
	}
	out, err := New(a.dtype, outShape...)
	if err != nil {
		return nil, err
	}
	if out.Len() == 0 {
		return out, nil
	}
	sz := a.dtype.Size()
	srcStrides := a.strides()
	// Copy row-by-row along the last axis.
	lastLen := (his[len(his)-1] - los[len(los)-1]) * sz
	idx := make([]int, len(a.shape))
	copy(idx, los)
	dstOff := 0
	for {
		srcFlat := 0
		for i, x := range idx {
			srcFlat += x * srcStrides[i]
		}
		copy(out.data[dstOff:dstOff+lastLen], a.data[srcFlat*sz:srcFlat*sz+lastLen])
		dstOff += lastLen
		// Advance the multi-index, skipping the last axis.
		i := len(idx) - 2
		for ; i >= 0; i-- {
			idx[i]++
			if idx[i] < his[i] {
				break
			}
			idx[i] = los[i]
		}
		if i < 0 {
			break
		}
	}
	return out, nil
}

// Index selects a single position along the first axis, reducing rank by
// one (NumPy's a[i]).
func (a *NDArray) Index(i int) (*NDArray, error) {
	if len(a.shape) == 0 {
		return nil, fmt.Errorf("tensor: cannot index 0-d array")
	}
	n := a.shape[0]
	if i < 0 {
		i += n
	}
	if i < 0 || i >= n {
		return nil, fmt.Errorf("tensor: index %d out of bounds for axis 0 (size %d)", i, n)
	}
	sub := a.Len() / n
	sz := a.dtype.Size()
	out, _ := FromBytes(a.dtype, a.shape[1:], a.data[i*sub*sz:(i+1)*sub*sz])
	return out, nil
}

// Equal reports dtype, shape and content equality.
func (a *NDArray) Equal(b *NDArray) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.dtype != b.dtype || len(a.shape) != len(b.shape) {
		return false
	}
	for i := range a.shape {
		if a.shape[i] != b.shape[i] {
			return false
		}
	}
	return string(a.data) == string(b.data)
}

// String renders a compact description, not the full contents.
func (a *NDArray) String() string {
	dims := make([]string, len(a.shape))
	for i, d := range a.shape {
		dims[i] = fmt.Sprint(d)
	}
	return fmt.Sprintf("NDArray(%s, [%s])", a.dtype, strings.Join(dims, ", "))
}
