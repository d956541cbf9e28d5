package tensor

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

var allDtypes = []Dtype{Bool, UInt8, UInt16, UInt32, UInt64, Int8, Int16, Int32, Int64, Float32, Float64}

// The ref* functions are the reductions as getFlat loops: one element at a
// time, float64 accumulation in element order. They define what the
// block-wise reductions must return, bit for bit.

func refSum(a *NDArray) float64 {
	var s float64
	for i, n := 0, a.Len(); i < n; i++ {
		s += a.getFlat(i)
	}
	return s
}

func refMean(a *NDArray) float64 {
	if a.Len() == 0 {
		return math.NaN()
	}
	return refSum(a) / float64(a.Len())
}

func refMin(a *NDArray) float64 {
	m := math.Inf(1)
	for i, n := 0, a.Len(); i < n; i++ {
		if v := a.getFlat(i); v < m {
			m = v
		}
	}
	return m
}

func refMax(a *NDArray) float64 {
	m := math.Inf(-1)
	for i, n := 0, a.Len(); i < n; i++ {
		if v := a.getFlat(i); v > m {
			m = v
		}
	}
	return m
}

func refL2(a *NDArray) float64 {
	var s float64
	for i, n := 0, a.Len(); i < n; i++ {
		v := a.getFlat(i)
		s += v * v
	}
	return math.Sqrt(s)
}

func refDot(a, b *NDArray) float64 {
	var s float64
	for i, n := 0, a.Len(); i < n; i++ {
		s += a.getFlat(i) * b.getFlat(i)
	}
	return s
}

func refAny(a *NDArray) bool {
	for i, n := 0, a.Len(); i < n; i++ {
		if a.getFlat(i) != 0 {
			return true
		}
	}
	return false
}

func refAll(a *NDArray) bool {
	for i, n := 0, a.Len(); i < n; i++ {
		if a.getFlat(i) == 0 {
			return false
		}
	}
	return true
}

// sameBits is float equality that tells -0 from +0 and equates NaNs. Which
// NaN's sign and payload survives NaN+NaN depends on the operand order the
// compiler picks for the add instruction, which Go leaves unspecified.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

func checkReductions(t *testing.T, name string, a *NDArray) {
	t.Helper()
	for _, r := range []struct {
		op        string
		got, want float64
	}{
		{"Sum", a.Sum(), refSum(a)},
		{"Mean", a.Mean(), refMean(a)},
		{"Min", a.Min(), refMin(a)},
		{"Max", a.Max(), refMax(a)},
		{"L2", a.L2(), refL2(a)},
	} {
		if !sameBits(r.got, r.want) {
			t.Errorf("%s %s: %v (%#x), getFlat loop %v (%#x)", name, r.op, r.got, math.Float64bits(r.got), r.want, math.Float64bits(r.want))
		}
	}
	if got, want := a.Any(), refAny(a); got != want {
		t.Errorf("%s Any: %v, getFlat loop %v", name, got, want)
	}
	if got, want := a.All(), refAll(a); got != want {
		t.Errorf("%s All: %v, getFlat loop %v", name, got, want)
	}
}

func checkDot(t *testing.T, name string, a, b *NDArray) {
	t.Helper()
	got, err := a.Dot(b)
	if err != nil {
		t.Fatalf("%s Dot: %v", name, err)
	}
	if want := refDot(a, b); !sameBits(got, want) {
		t.Errorf("%s Dot: %v, getFlat loop %v", name, got, want)
	}
}

func randomArray(rng *rand.Rand, d Dtype, n int) *NDArray {
	data := make([]byte, n*d.Size())
	rng.Read(data)
	if d == Float32 || d == Float64 {
		// Random bit patterns are mostly huge or denormal (and some NaN);
		// overwrite most elements with ordinary magnitudes.
		for i := 0; i < n; i++ {
			if rng.Intn(8) == 0 {
				continue
			}
			v := (rng.Float64() - 0.5) * 1e3
			if d == Float32 {
				binary.LittleEndian.PutUint32(data[i*4:], math.Float32bits(float32(v)))
			} else {
				binary.LittleEndian.PutUint64(data[i*8:], math.Float64bits(v))
			}
		}
	}
	a, err := FromBytes(d, []int{n}, data)
	if err != nil {
		panic(err)
	}
	return a
}

// TestReductionsMatchGetFlatLoop holds every whole-array reduction on every
// dtype to the element-at-a-time float64 loop, bit for bit.
func TestReductionsMatchGetFlatLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	// Lengths around the block size, so the partial last block, the exact
	// multiple and the one-past cases all run.
	lengths := []int{0, 1, 2, blockElems - 1, blockElems, blockElems + 1, 3*blockElems + 7, 64 * 64 * 3}
	for _, d := range allDtypes {
		for _, n := range lengths {
			a := randomArray(rng, d, n)
			name := d.String() + "/random"
			checkReductions(t, name, a)
			checkDot(t, name, a, randomArray(rng, allDtypes[rng.Intn(len(allDtypes))], n))

			zeros := MustNew(d, n)
			checkReductions(t, d.String()+"/zeros", zeros)
			if n > 0 {
				// One non-zero element at the very end: Any/All must look
				// at the last block.
				zeros.setFlat(n-1, 1)
				checkReductions(t, d.String()+"/last-one", zeros)
			}
		}
		// A multi-dimensional and a 0-d array reduce like their flat data.
		nd, _ := randomArray(rng, d, 5*7*3).Reshape(5, 7, 3)
		checkReductions(t, d.String()+"/3d", nd)
		checkReductions(t, d.String()+"/0d", Scalar(d, 3))

		// Extremes of the dtype.
		ext := MustNew(d, 2*blockElems)
		for i := 0; i < ext.Len(); i++ {
			v := math.Inf(1)
			if i%3 == 0 {
				v = math.Inf(-1)
			}
			ext.setFlat(i, v) // saturates for integers
		}
		checkReductions(t, d.String()+"/extremes", ext)
	}

	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, 1, -1,
		math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, math.MaxFloat32, 1e-40}
	for _, d := range []Dtype{Float32, Float64} {
		for _, lead := range special {
			// The special value first, last and alone, among ordinary ones:
			// NaN poisons Sum but is skipped by Min/Max; -0 is zero to
			// Any/All; opposite infinities make NaN.
			vals := make([]float64, blockElems+3)
			for i := range vals {
				vals[i] = float64(i%11) - 5
			}
			for _, pos := range []int{0, blockElems, len(vals) - 1} {
				vs := append([]float64(nil), vals...)
				vs[pos] = lead
				a, _ := FromFloat64s(d, []int{len(vs)}, vs)
				checkReductions(t, d.String()+"/special", a)
				checkDot(t, d.String()+"/special", a, a)
			}
			one, _ := FromFloat64s(d, []int{1}, []float64{lead})
			checkReductions(t, d.String()+"/special-alone", one)
		}
		both, _ := FromFloat64s(d, []int{3}, []float64{math.Inf(1), 1, math.Inf(-1)})
		checkReductions(t, d.String()+"/inf-minus-inf", both)
	}

	// 64-bit integers near 2^53 are not exactly representable: the
	// reductions must round exactly as the float64 loop does.
	near := []int64{1<<53 - 1, 1 << 53, 1<<53 + 1, 1<<53 + 3, -(1<<53 + 1), math.MaxInt64, math.MinInt64, 1<<62 + 1}
	i64, _ := FromInt64s(Int64, []int{len(near)}, near)
	for i, v := range near { // FromInt64s goes through float64; store exactly
		binary.LittleEndian.PutUint64(i64.data[i*8:], uint64(v))
	}
	checkReductions(t, "int64/near-2^53", i64)
	u64 := MustNew(UInt64, 4)
	for i, v := range []uint64{1<<53 + 1, math.MaxUint64, 1<<63 + 1, 3} {
		binary.LittleEndian.PutUint64(u64.data[i*8:], v)
	}
	checkReductions(t, "uint64/near-2^53", u64)
	checkDot(t, "int64xuint64", i64.mustSlice(0, 4), u64)
}

func (a *NDArray) mustSlice(lo, hi int) *NDArray {
	out, err := a.Slice(Range{lo, hi})
	if err != nil {
		panic(err)
	}
	return out
}

// TestIntSumStopsWhereFloat64StopsBeingExact drives the integer
// accumulation of Sum across its bound: 2^21 maximal uint32 values still
// sum exactly in float64, one more element (an odd total above 2^53) does
// not, and on both sides Sum equals the float64 loop.
func TestIntSumStopsWhereFloat64StopsBeingExact(t *testing.T) {
	const atBound = (1<<53 - 1) / math.MaxUint32 // 2097152
	data := make([]byte, (atBound+1)*4)
	for i := range data {
		data[i] = 0xff
	}
	for _, c := range []struct {
		n   int
		int bool
	}{{atBound, true}, {atBound + 1, false}} {
		a, err := FromBytes(UInt32, []int{c.n}, data[:c.n*4])
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := intSum(a.dtype, a.data); ok != c.int {
			t.Fatalf("n=%d: integer accumulation used=%v, want %v", c.n, ok, c.int)
		}
		if got, want := a.Sum(), refSum(a); !sameBits(got, want) {
			t.Fatalf("n=%d: Sum %v, float64 loop %v", c.n, got, want)
		}
	}
}

var reduceSink float64

func BenchmarkReduce(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	const n = 64 * 64 * 3
	for _, d := range []Dtype{UInt8, Int16, Float32} {
		a := randomArray(rng, d, n)
		for _, op := range []struct {
			name string
			f    func(*NDArray) float64
		}{{"Sum", (*NDArray).Sum}, {"Mean", (*NDArray).Mean}, {"Max", (*NDArray).Max}} {
			b.Run(d.String()+"/"+op.name, func(b *testing.B) {
				b.ReportAllocs()
				b.SetBytes(int64(a.NumBytes()))
				for i := 0; i < b.N; i++ {
					reduceSink = op.f(a)
				}
			})
		}
	}
}
