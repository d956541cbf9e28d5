package chunk

import (
	"bytes"
	"errors"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"
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

// allocBytes is the bytes f allocates per call, over 50 calls.
func allocBytes(f func()) int64 {
	const runs = 50
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return int64(after.TotalAlloc-before.TotalAlloc) / runs
}

// TestReadsAllocateOnlyWhatTheyTouch: Open allocates nothing sized by the
// data section, in an lz4 chunk of 64 samples that straddle block edges.
// Open plus a read of one sample inside one block allocates at most that
// block plus O(1); Open plus a read of a sample spanning blocks, or a whole
// read, allocates at most one contiguous buffer of the decoded data section
// and a slice header a block plus O(1), and a whole read the sample table
// besides.
func TestReadsAllocateOnlyWhatTheyTouch(t *testing.T) {
	const n, size, bs = 64, 4000, CompressedBlockSize
	blob, err := LZ4.Encode(maskSamples(rand.New(rand.NewSource(7)), n, size))
	if err != nil {
		t.Fatal(err)
	}
	const slack = 256
	open := allocBytes(func() { mustOpen(t, blob) })
	if open > n*size/8 {
		t.Fatalf("Open allocates %d bytes for a %d-byte data section", open, n*size)
	}
	// A buffer that large is allocated in whole 8 KiB pages; with it comes a
	// slice header a block, each block's span of it.
	nb := (n*size + bs - 1) / bs
	contig := int64((n*size+8191)/8192*8192) + int64(nb)*int64(unsafe.Sizeof([]byte{}))
	for _, c := range []struct {
		i, blocks int
	}{{0, 1}, {2, 2}} { // [0, 4000) is in block 0; [8000, 12000) spans blocks 1 and 2
		want := open + bs + slack
		if c.blocks > 1 {
			want = open + contig + slack
		}
		got := allocBytes(func() {
			if _, err := mustOpen(t, blob).Sample(c.i); err != nil {
				t.Fatal(err)
			}
		})
		if got > want {
			t.Fatalf("Open and sample %d (%d blocks) allocate %d bytes, want at most %d", c.i, c.blocks, got, want)
		}
	}
	whole := allocBytes(func() {
		if _, err := mustOpen(t, blob).Samples(); err != nil {
			t.Fatal(err)
		}
	})
	if want := open + contig + n*int64(unsafe.Sizeof(Sample{})) + slack; whole > want {
		t.Fatalf("Open and a whole read allocate %d bytes, want at most %d", whole, want)
	}
}

// TestSpanningReadsOfACachedChunkAllocateNothing: once an lz4 chunk's
// samples have been read, reading them again — spanning blocks or not, one
// by one or whole — allocates nothing, and every read returns its bytes.
func TestSpanningReadsOfACachedChunkAllocateNothing(t *testing.T) {
	const n, size = 40, 3000 // straddles block edges
	samples := maskSamples(rand.New(rand.NewSource(10)), n, size)
	blob, err := LZ4.Encode(samples)
	if err != nil {
		t.Fatal(err)
	}
	c := mustOpen(t, blob)
	read := func(i int) {
		if s, err := c.Sample(i); err != nil || !bytes.Equal(s.Data, samples[i].Data) {
			t.Fatalf("sample %d: %v", i, err)
		}
	}
	// Sample 1, [3000, 6000), spans blocks 0 and 1; sample 2, [6000, 9000),
	// blocks 1 and 2; sample 29, [87000, 90000), lies in block 21.
	read(29)
	if a := testing.AllocsPerRun(20, func() { read(1); read(2); read(29) }); a != 0 {
		t.Fatalf("reads of samples already read allocate %v times", a)
	}
	if _, err := c.Samples(); err != nil {
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(20, func() {
		for i := range samples {
			read(i)
		}
		if _, err := c.Samples(); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Fatalf("reads after a whole read allocate %v times", a)
	}
}

// TestDigestCoversBuffersReadBeforeAMove: after SumBlocks, a write into a
// sample read out of a block's own buffer changes the chunk's Digest also
// after a spanning read has moved that block into the contiguous buffer.
func TestDigestCoversBuffersReadBeforeAMove(t *testing.T) {
	samples := maskSamples(rand.New(rand.NewSource(12)), 40, 3000)
	blob, err := LZ4.Encode(samples)
	if err != nil {
		t.Fatal(err)
	}
	c := mustOpen(t, blob)
	c.SumBlocks()
	s, err := c.Sample(29) // [87000, 90000), in block 21: read from its own buffer
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Samples(); err != nil { // moves block 21
		t.Fatal(err)
	}
	clean := c.Digest()
	s.Data[0] ^= 1
	if c.Digest() == clean {
		t.Fatal("a write into a sample read before its block moved leaves the digest unchanged")
	}
	s.Data[0] ^= 1
	if c.Digest() != clean {
		t.Fatal("undoing the write does not restore the digest")
	}
}

func mustOpen(t *testing.T, blob []byte) *Chunk {
	c, err := Open(blob)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestUncompressedBlockCheckedOnFirstTouch: an uncompressed chunk with one
// flipped data byte opens, and every sample outside the damaged block
// reads; a read touching the block, a whole read and Verify fail with
// ErrCorrupt naming it, again on every try.
func TestUncompressedBlockCheckedOnFirstTouch(t *testing.T) {
	samples := maskSamples(rand.New(rand.NewSource(8)), 20, 700)
	blob, err := Encode(samples)
	if err != nil {
		t.Fatal(err)
	}
	off, _, _, err := SampleRange(blob, 10) // bytes [7000, 7700): blocks 6 and 7
	if err != nil {
		t.Fatal(err)
	}
	bad := bytes.Clone(blob)
	bad[off+100] ^= 0x40 // data byte 7100, in block 6
	c, err := Open(bad)
	if err != nil {
		t.Fatalf("Open = %v; a damaged data block fails only its reads", err)
	}
	for try := 0; try < 2; try++ {
		for i := range samples {
			s, err := c.Sample(i)
			damaged := i*700 < 7*BlockSize && (i+1)*700 > 6*BlockSize
			switch {
			case damaged && (!errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "block 6 ")):
				t.Fatalf("try %d, sample %d: %v, want ErrCorrupt naming block 6", try, i, err)
			case !damaged && (err != nil || !bytes.Equal(s.Data, samples[i].Data)):
				t.Fatalf("try %d, sample %d outside the damaged block: %v", try, i, err)
			}
		}
		if _, err := c.Samples(); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "block 6 ") {
			t.Fatalf("try %d: Samples = %v, want ErrCorrupt naming block 6", try, err)
		}
	}
	if _, err := Verify(bad); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "block 6 ") {
		t.Fatalf("Verify = %v, want ErrCorrupt naming block 6", err)
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

// TestConcurrentReadsInflateEachBlockOnce: goroutines reading an lz4
// chunk's samples in different orders, some spanning blocks and some not,
// with a whole read and Digest among them, each read their bytes, inflate
// every block exactly once between them, and leave the digest unchanged.
func TestConcurrentReadsInflateEachBlockOnce(t *testing.T) {
	const n, size = 40, 3000
	samples := maskSamples(rand.New(rand.NewSource(13)), n, size)
	blob, err := LZ4.Encode(samples)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 20; trial++ {
		c := mustOpen(t, blob)
		var inflated atomic.Int64
		c.CountInflated(&inflated)
		c.SumBlocks()
		clean := c.Digest()
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := 0; k < n; k++ {
					i := (w*17 + k*(2*w+1)) % n
					if s, err := c.Sample(i); err != nil || !bytes.Equal(s.Data, samples[i].Data) {
						t.Errorf("sample %d: %v", i, err)
						return
					}
					if k == n/2 && w == trial%4 {
						if _, err := c.Samples(); err != nil {
							t.Error(err)
							return
						}
					}
					if k%8 == 0 && c.Digest() != clean {
						t.Error("the digest moved under reads")
						return
					}
				}
			}()
		}
		wg.Wait()
		if got := inflated.Load(); got != n*size {
			t.Fatalf("trial %d: %d bytes inflated, want each of the %d decoded bytes once", trial, got, n*size)
		}
	}
}
