// Package tensor provides the in-memory tensor substrate of the
// reproduction: NumPy-style n-dimensional arrays over flat byte buffers, the
// dtype lattice, numeric kernels used by the Tensor Query Language, and the
// htype system (§3.3) that types the columns of a Deep Lake dataset.
package tensor

import (
	"fmt"
	"math"
)

// Dtype enumerates element types, mirroring the NumPy dtypes the paper
// builds on (§3.2-3.3).
type Dtype uint8

// Supported dtypes.
const (
	InvalidDtype Dtype = iota
	Bool
	UInt8
	UInt16
	UInt32
	UInt64
	Int8
	Int16
	Int32
	Int64
	Float32
	Float64
)

var dtypeNames = map[Dtype]string{
	Bool:    "bool",
	UInt8:   "uint8",
	UInt16:  "uint16",
	UInt32:  "uint32",
	UInt64:  "uint64",
	Int8:    "int8",
	Int16:   "int16",
	Int32:   "int32",
	Int64:   "int64",
	Float32: "float32",
	Float64: "float64",
}

// String returns the NumPy-style name.
func (d Dtype) String() string {
	if s, ok := dtypeNames[d]; ok {
		return s
	}
	return fmt.Sprintf("dtype(%d)", uint8(d))
}

// Size returns the element size in bytes, 0 for an unknown dtype. It sits
// under every element access, hence a switch and not a table lookup.
func (d Dtype) Size() int {
	switch d {
	case Bool, UInt8, Int8:
		return 1
	case UInt16, Int16:
		return 2
	case UInt32, Int32, Float32:
		return 4
	case UInt64, Int64, Float64:
		return 8
	}
	return 0
}

// Valid reports whether d is a known dtype.
func (d Dtype) Valid() bool { return d.Size() != 0 }

// IsFloat reports whether d is a floating-point dtype.
func (d Dtype) IsFloat() bool { return d == Float32 || d == Float64 }

// IsInteger reports whether d is a (signed or unsigned) integer dtype.
func (d Dtype) IsInteger() bool {
	switch d {
	case UInt8, UInt16, UInt32, UInt64, Int8, Int16, Int32, Int64:
		return true
	}
	return false
}

// dtypesByName inverts dtypeNames.
var dtypesByName = func() map[string]Dtype {
	m := make(map[string]Dtype, len(dtypeNames))
	for d, n := range dtypeNames {
		m[n] = d
	}
	return m
}()

// ParseDtype resolves a NumPy-style dtype name.
func ParseDtype(name string) (Dtype, error) {
	if d, ok := dtypesByName[name]; ok {
		return d, nil
	}
	return InvalidDtype, fmt.Errorf("tensor: unknown dtype %q", name)
}

// clampToDtype converts a float64 value to the closest representable value
// of dtype d, returning the bit pattern as uint64. Floats pass through;
// integers saturate at their bounds, matching NumPy casting used for
// assignments from query expressions.
func clampToDtype(v float64, d Dtype) uint64 {
	switch d {
	case Bool:
		if v != 0 {
			return 1
		}
		return 0
	case Float32:
		return uint64(math.Float32bits(float32(v)))
	case Float64:
		return math.Float64bits(v)
	case UInt8:
		return uint64(clampUint(v, math.MaxUint8))
	case UInt16:
		return uint64(clampUint(v, math.MaxUint16))
	case UInt32:
		return uint64(clampUint(v, math.MaxUint32))
	case UInt64:
		return clampUint(v, math.MaxUint64)
	case Int8:
		return uint64(clampInt(v, math.MinInt8, math.MaxInt8))
	case Int16:
		return uint64(clampInt(v, math.MinInt16, math.MaxInt16))
	case Int32:
		return uint64(clampInt(v, math.MinInt32, math.MaxInt32))
	case Int64:
		return uint64(clampInt(v, math.MinInt64, math.MaxInt64))
	}
	return 0
}

func clampUint(v float64, max uint64) uint64 {
	if math.IsNaN(v) || v <= 0 {
		return 0
	}
	if v >= float64(max) {
		return max
	}
	return uint64(v)
}

func clampInt(v float64, min, max int64) int64 {
	if math.IsNaN(v) {
		return 0
	}
	if v <= float64(min) {
		return min
	}
	if v >= float64(max) {
		return max
	}
	return int64(v)
}
