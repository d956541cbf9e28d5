package compress

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// lz4Masks is 64 segmentation masks of 64×64 uint8 laid end to end, the
// shape of an lz4 mask chunk: background zeros with 2 to 4 filled discs, the
// pixels of disc k set to k+1.
func lz4Masks() []byte {
	const side = 64
	rng := rand.New(rand.NewSource(11))
	out := make([]byte, 0, 64*side*side)
	for m := 0; m < 64; m++ {
		mask := make([]byte, side*side)
		for k := range 2 + rng.Intn(3) {
			cx, cy := rng.Float64()*side, rng.Float64()*side
			r := (0.08 + rng.Float64()*0.22) * side
			for y := 0; y < side; y++ {
				for x := 0; x < side; x++ {
					if dx, dy := float64(x)-cx, float64(y)-cy; dx*dx+dy*dy < r*r {
						mask[y*side+x] = byte(k + 1)
					}
				}
			}
		}
		out = append(out, mask...)
	}
	return out
}

func lz4Random(n int) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(13)).Read(b)
	return b
}

// lz4Corpus is the fixed input set whose compressed bytes are pinned: mask
// chunks, a long zero run, every short length, incompressible bytes, and
// short-period repeats (overlapping matches).
func lz4Corpus() [][]byte {
	in := [][]byte{lz4Masks(), make([]byte, 1<<20), lz4Random(64 << 10)}
	abc := bytes.Repeat([]byte("abcdefg"), 8)
	for n := 1; n <= 31; n++ {
		in = append(in, abc[:n])
	}
	rng := rand.New(rand.NewSource(17))
	for period := 1; period <= 9; period++ {
		unit := make([]byte, period)
		rng.Read(unit)
		in = append(in, append(bytes.Repeat(unit, 1000/period+period), "tail of literals"...))
	}
	return in
}

// TestLZ4CompressBytesPinned: the encoder's output over the corpus is
// byte-identical to what it was recorded as, so a faster encoder stores the
// same chunks.
func TestLZ4CompressBytesPinned(t *testing.T) {
	const want = "dfdf5efa12dabdb0c5c5841a01281253e47132cfe90c29ba913e6b84b6b609a2"
	c, _ := ByName("lz4")
	h := sha256.New()
	for _, src := range lz4Corpus() {
		enc, err := c.Compress(src)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(binary.AppendUvarint(nil, uint64(len(enc))))
		h.Write(enc)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("lz4 output over the corpus hashes to %s, want %s", got, want)
	}
}

// TestLZ4EncoderTableWraps: an encoder whose position base would overflow
// clears its table and still writes what a fresh encoder writes, and
// entries an earlier call left behind never become matches.
func TestLZ4EncoderTableWraps(t *testing.T) {
	src := lz4Masks()
	want := append([]byte(nil), (&lz4Encoder{base: 1}).compressBlock(src)...)
	e := &lz4Encoder{base: math.MaxInt32 - int32(len(src))/2}
	for i := range e.table {
		e.table[i] = e.base - 1 // stale: written by an earlier call
	}
	for round := 0; round < 3; round++ {
		if got := e.compressBlock(src); !bytes.Equal(got, want) {
			t.Fatalf("round %d (base %d): block differs from a fresh encoder's", round, e.base)
		}
	}
}

// FuzzLZ4Decompress: arbitrary bytes either fail to decompress or decode to
// exactly the header's length, never panic, and never allocate more than the
// block format can produce from them (255 bytes per input byte).
func FuzzLZ4Decompress(f *testing.F) {
	c, _ := ByName("lz4")
	for _, src := range lz4Corpus() {
		enc, err := c.Compress(src)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		var out []byte
		var err error
		// The slack covers an error value and the allocator rounding a
		// large output up to whole pages. The fuzzing engine allocates
		// beside the call now and then, so a measurement over the bound is
		// taken again: Decompress allocates the same every time.
		bound := lz4MaxRatio*uint64(len(in)) + 16<<10
		for try := 0; ; try++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			out, err = c.Decompress(in)
			runtime.ReadMemStats(&after)
			grew := after.TotalAlloc - before.TotalAlloc
			if grew <= bound {
				break
			}
			if try == 2 {
				t.Fatalf("decompressing %d bytes allocated %d", len(in), grew)
			}
		}
		if err != nil {
			return
		}
		if size, n := binary.Uvarint(in[1:]); n <= 0 || uint64(len(out)) != size {
			t.Fatalf("decoded %d bytes without error, header says %d", len(out), size)
		}
	})
}

// TestLZ4AllocatesOnlyItsOutput: Decompress allocates the output and nothing
// else, and Compress allocates its output and no hash table. The runs are
// many because the race detector's pools drop a share of what they are
// handed.
func TestLZ4AllocatesOnlyItsOutput(t *testing.T) {
	c, _ := ByName("lz4")
	src := lz4Masks()
	enc, err := c.Compress(src)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { c.Compress(src) }); n != 1 {
		t.Errorf("Compress of a mask chunk: %v allocs, want 1", n)
	}
	if n := testing.AllocsPerRun(100, func() { c.Decompress(enc) }); n != 1 {
		t.Errorf("Decompress of a mask chunk: %v allocs, want 1", n)
	}
}

// TestDecodeBlockAllocatesNothing: the block form of lz4 and deflate
// round-trips a mask block, refuses to grow an incompressible one, and
// decodes into the caller's buffer without allocating.
func TestDecodeBlockAllocatesNothing(t *testing.T) {
	src := lz4Masks()[:4<<10]
	for _, name := range []string{"lz4", "deflate"} {
		bc, _ := BlockNamed(name)
		enc, ok := bc.AppendBlock([]byte("prefix"), src)
		if !ok || string(enc[:6]) != "prefix" || len(enc)-6 >= len(src) {
			t.Fatalf("%s: AppendBlock of a mask block = %d bytes, %v", name, len(enc)-6, ok)
		}
		dst := make([]byte, len(src))
		if err := bc.DecodeBlock(dst, enc[6:]); err != nil || !bytes.Equal(dst, src) {
			t.Fatalf("%s: DecodeBlock = %v, or other bytes", name, err)
		}
		if err := bc.DecodeBlock(dst[:len(dst)-1], enc[6:]); err == nil {
			t.Fatalf("%s: DecodeBlock into a short buffer succeeds", name)
		}
		// deflate's decoder state is pooled, which the race detector's
		// pool drops at random.
		if name == "lz4" || !raceEnabled {
			if n := testing.AllocsPerRun(100, func() { bc.DecodeBlock(dst, enc[6:]) }); n != 0 {
				t.Errorf("%s: DecodeBlock: %v allocs, want 0", name, n)
			}
		}
		if out, ok := bc.AppendBlock(nil, lz4Random(4<<10)); ok || out != nil {
			t.Errorf("%s: AppendBlock of random bytes = %d bytes, %v; want refused", name, len(out), ok)
		}
	}
}

func benchLZ4Inputs() []struct {
	name string
	src  []byte
} {
	return []struct {
		name string
		src  []byte
	}{{"masks", lz4Masks()}, {"random", lz4Random(256 << 10)}}
}

func BenchmarkLZ4Compress(b *testing.B) {
	c, _ := ByName("lz4")
	for _, in := range benchLZ4Inputs() {
		b.Run(in.name, func(b *testing.B) {
			b.SetBytes(int64(len(in.src)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var err error
				if benchSink, err = c.Compress(in.src); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkLZ4Decompress(b *testing.B) {
	c, _ := ByName("lz4")
	for _, in := range benchLZ4Inputs() {
		enc, err := c.Compress(in.src)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(in.name, func(b *testing.B) {
			b.SetBytes(int64(len(in.src)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if benchSink, err = c.Decompress(enc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
