package chunk

import (
	"bytes"
	"math/rand"
	"sync/atomic"
	"testing"
)

// maskSamples are n samples of size bytes each: runs of a few values, as
// segmentation masks are, which compress well, with every fifth sample
// random, which does not.
func maskSamples(rng *rand.Rand, n, size int) []Sample {
	samples := make([]Sample, n)
	for i := range samples {
		data := make([]byte, size)
		if i%5 == 4 {
			rng.Read(data)
		} else {
			for j := 0; j < size; j += 1 + rng.Intn(300) {
				data[j] = byte(rng.Intn(4))
				for k := j + 1; k < min(j+300, size) && rng.Intn(60) != 0; k++ {
					data[k] = data[j]
				}
			}
		}
		samples[i] = Sample{Shape: []int{size}, Data: data}
	}
	return samples
}

// TestCompressedChunksRoundTrip: a chunk of any codec decodes, sample by
// sample and whole, to the samples encoded, checks clean, and an lz4 or
// deflate chunk of masks stores fewer bytes than an uncompressed one.
func TestCompressedChunksRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		samples := maskSamples(rng, 1+rng.Intn(40), 1+rng.Intn(9000))
		plain, err := Encode(samples)
		if err != nil {
			t.Fatal(err)
		}
		for _, codec := range []Codec{None, LZ4, Deflate} {
			blob, err := codec.Encode(samples)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := Verify(blob); err != nil {
				t.Fatalf("trial %d codec %d: Verify = %v", trial, codec, err)
			}
			c, err := Open(blob)
			if err != nil {
				t.Fatal(err)
			}
			for i := len(samples) - 1; i >= 0; i-- {
				s, err := c.Sample(i)
				if err != nil || !bytes.Equal(s.Data, samples[i].Data) || !equalShape(s.Shape, samples[i].Shape) {
					t.Fatalf("trial %d codec %d: sample %d reads other bytes (%v)", trial, codec, i, err)
				}
			}
			got, err := Decode(blob)
			if err != nil || len(got) != len(samples) {
				t.Fatalf("trial %d codec %d: Decode = %d samples, %v", trial, codec, len(got), err)
			}
			for i := range got {
				if !bytes.Equal(got[i].Data, samples[i].Data) {
					t.Fatalf("trial %d codec %d: decoded sample %d differs", trial, codec, i)
				}
			}
			if codec != None && len(samples) > 4 && len(blob) >= len(plain) {
				t.Fatalf("trial %d codec %d: %d bytes stored against %d uncompressed", trial, codec, len(blob), len(plain))
			}
		}
	}
}

// TestFirstTouchInflatesOnlyItsBlocks: reading one sample of a compressed
// chunk inflates the blocks it spans and no other, and reading it again, or
// another sample in the same blocks, inflates nothing more.
func TestFirstTouchInflatesOnlyItsBlocks(t *testing.T) {
	const size = 3000 // straddles block edges
	samples := maskSamples(rand.New(rand.NewSource(6)), 40, size)
	blob, err := LZ4.Encode(samples)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Open(blob)
	if err != nil {
		t.Fatal(err)
	}
	var inflated atomic.Int64
	c.CountInflated(&inflated)
	read := func(i int) {
		t.Helper()
		if s, err := c.Sample(i); err != nil || !bytes.Equal(s.Data, samples[i].Data) {
			t.Fatalf("sample %d: %v", i, err)
		}
	}
	read(10) // bytes [30000, 33000): blocks 7 and 8
	if got := inflated.Load(); got != 2*CompressedBlockSize {
		t.Fatalf("one sample inflated %d bytes, want its two blocks' %d", got, 2*CompressedBlockSize)
	}
	read(10)
	read(9) // [27000, 30000): blocks 6 and 7
	if got := inflated.Load(); got != 3*CompressedBlockSize {
		t.Fatalf("%d bytes inflated, want three blocks' %d", got, 3*CompressedBlockSize)
	}
	if _, err := c.Samples(); err != nil {
		t.Fatal(err)
	}
	if got := inflated.Load(); got != 40*size {
		t.Fatalf("a whole read brings the total to %d bytes, want the chunk's %d", got, 40*size)
	}
}

// TestInflationAllocatesNothing: inflating every block of a chunk of many
// blocks costs no allocation beyond what opening it does.
func TestInflationAllocatesNothing(t *testing.T) {
	blob, err := LZ4.Encode(maskSamples(rand.New(rand.NewSource(7)), 64, 4000))
	if err != nil {
		t.Fatal(err)
	}
	open := testing.AllocsPerRun(50, func() {
		if _, err := Open(blob); err != nil {
			t.Fatal(err)
		}
	})
	inflate := testing.AllocsPerRun(50, func() {
		c, err := Open(blob)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Samples(); err != nil {
			t.Fatal(err)
		}
	})
	if inflate != open {
		t.Fatalf("open and inflate %v allocs/op against open's %v: inflation allocates", inflate, open)
	}
}

// TestColumnIsDecidedFromTheDirectory: a chunk whose samples each hold one
// element of size bytes, back to back, is one byte run for that size, in an
// uncompressed and an lz4 chunk (inflating its blocks); a chunk with an
// empty sample, a longer one, or one shaped for more than one element whose
// bytes happen to line up is not, nor is any chunk for another size.
func TestColumnIsDecidedFromTheDirectory(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	scalars := func(n int) []Sample {
		samples := make([]Sample, n)
		for i := range samples {
			data := make([]byte, 4)
			rng.Read(data)
			samples[i] = Sample{Shape: [][]int{{}, {1}, {1, 1}}[i%3], Data: data}
		}
		return samples
	}
	for _, codec := range []Codec{None, LZ4} {
		for _, c := range []struct {
			name  string
			edit  func([]Sample)
			isCol bool
		}{
			{"scalars", func([]Sample) {}, true},
			{"an empty sample", func(s []Sample) { s[700] = Sample{Shape: []int{0}} }, false},
			{"a longer sample", func(s []Sample) { s[3] = Sample{Shape: []int{2}, Data: make([]byte, 8)} }, false},
			{"two int16 elements", func(s []Sample) { s[1500].Shape = []int{2} }, false},
		} {
			samples := scalars(2000)
			c.edit(samples)
			blob, err := codec.Encode(samples)
			if err != nil {
				t.Fatal(err)
			}
			ch, err := Open(blob)
			if err != nil {
				t.Fatal(err)
			}
			for _, size := range []int{2, 4, 8} {
				col, err := ch.Column(size)
				if err != nil {
					t.Fatal(err)
				}
				if want := c.isCol && size == 4; (col != nil) != want {
					t.Fatalf("%v %s: Column(%d) is a column: %v, want %v", codec, c.name, size, col != nil, want)
				}
				if col == nil {
					continue
				}
				var want []byte
				for _, s := range samples {
					want = append(want, s.Data...)
				}
				if !bytes.Equal(col, want) {
					t.Fatalf("%v %s: column differs from the samples' payloads", codec, c.name)
				}
			}
		}
	}
}
