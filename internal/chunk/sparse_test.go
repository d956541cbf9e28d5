package chunk

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"strings"
	"testing"
)

// randomChunk encodes n samples of random ranks and sizes, some past a
// block, and returns the blob, the samples and their layout.
func randomChunk(t testing.TB, rng *rand.Rand, n int) ([]byte, []Sample, Layout) {
	t.Helper()
	samples := make([]Sample, n)
	shapes := make([][]int, n)
	sizes := make([]int64, n)
	for i := range samples {
		size := rng.Intn(3 * BlockSize)
		if rng.Intn(5) == 0 {
			size = 0
		}
		data := make([]byte, size)
		rng.Read(data)
		shape := []int{size}
		if rng.Intn(3) == 0 {
			shape = []int{1, size}
		}
		samples[i] = Sample{Shape: shape, Data: data}
		shapes[i], sizes[i] = shape, int64(size)
	}
	blob, err := Encode(samples)
	if err != nil {
		t.Fatal(err)
	}
	return blob, samples, NewLayout(shapes, sizes)
}

// fetch cuts the plan's ranges out of a whole blob, as a range request would.
func fetch(blob []byte, sp *Sparse) [][]byte {
	parts := make([][]byte, len(sp.Ranges()))
	for i, r := range sp.Ranges() {
		parts[i] = blob[r.Offset : r.Offset+r.Length]
	}
	return parts
}

// TestSparseReadMatchesDecode: a sparse read of any selection checks clean
// and hands back exactly the selected samples' bytes, and fetches only the
// blocks holding them.
func TestSparseReadMatchesDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		blob, samples, layout := randomChunk(t, rng, 1+rng.Intn(20))
		var sel []int
		for i := range samples {
			if rng.Intn(3) == 0 {
				sel = append(sel, i)
			}
		}
		sp := layout.Samples(sel)
		parts := fetch(blob, sp)
		if err := sp.Check(parts); err != nil {
			t.Fatalf("trial %d: clean sparse read fails its checks: %v", trial, err)
		}
		got := sp.Decode(parts)
		picked := map[int]bool{}
		for _, i := range sel {
			picked[i] = true
		}
		var want int64
		for i, s := range got {
			if !equalShape(s.Shape, samples[i].Shape) {
				t.Fatalf("trial %d: sample %d shape %v, want %v", trial, i, s.Shape, samples[i].Shape)
			}
			if picked[i] && !bytes.Equal(s.Data, samples[i].Data) {
				t.Fatalf("trial %d: selected sample %d reads %d bytes unlike the stored %d", trial, i, len(s.Data), len(samples[i].Data))
			}
			if !picked[i] && s.Data != nil {
				t.Fatalf("trial %d: unselected sample %d has data", trial, i)
			}
			if picked[i] {
				want += int64(len(samples[i].Data))
			}
		}
		read, _ := sp.Blocks()
		if span := read * BlockSize; span < want || span > want+int64(2*len(sel))*BlockSize {
			t.Fatalf("trial %d: %d blocks read for %d selected bytes", trial, read, want)
		}
	}
}

func equalShape(a, b []int) bool { return bytes.Equal(shapeBytes(a), shapeBytes(b)) }

func shapeBytes(s []int) []byte {
	var b []byte
	for _, d := range s {
		b = binary.LittleEndian.AppendUint32(b, uint32(d))
	}
	return b
}

// TestSparseChecksCatchEveryFlip: one flipped bit anywhere in any fetched
// range fails the range's own check, naming what it protects, and a short
// range fails too.
func TestSparseChecksCatchEveryFlip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	blob, samples, layout := randomChunk(t, rng, 12)
	sel := []int{1, 4, 5, 11}
	sp := layout.Samples(sel)
	names := map[int]string{0: "block table seal", 1: "directory seal"}
	for i, r := range sp.Ranges() {
		for _, at := range []int64{0, r.Length / 2, r.Length - 1} {
			if r.Length == 0 {
				continue
			}
			bad := bytes.Clone(blob)
			bad[r.Offset+at] ^= 0x10
			parts := fetch(bad, sp)
			err := sp.Check(parts)
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("flip at byte %d of range %d: Check = %v, want ErrCorrupt", at, i, err)
			}
			want := names[i]
			if i >= 2 {
				want = "block "
			}
			if i > 0 || at < r.Length-4 {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("flip at byte %d of range %d: %v does not name the %s", at, i, err, want)
				}
			}
		}
	}
	parts := fetch(blob, sp)
	parts[2] = parts[2][:len(parts[2])-1]
	if err := sp.Check(parts); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated block range: Check = %v, want ErrCorrupt", err)
	}
	// Checked out of order, a range that needs the table is not checked.
	if checked, err := sp.Checker().Check(2, fetch(blob, sp)[2]); checked || err != nil {
		t.Fatalf("block range before the table: Check = %v, %v; want unchecked", checked, err)
	}
	_ = samples
}

// TestSparseCheckComparesTheDirectory: a layout computed from the wrong
// shapes is caught by comparing it with the fetched directory.
func TestSparseCheckComparesTheDirectory(t *testing.T) {
	samples := []Sample{{Shape: []int{2, 2}, Data: []byte("abcd")}, {Shape: []int{4}, Data: []byte("efgh")}}
	blob, err := Encode(samples)
	if err != nil {
		t.Fatal(err)
	}
	wrong := NewLayout([][]int{{4, 1}, {4}}, []int64{4, 4})
	sp := wrong.Samples([]int{1})
	if err := sp.Check(fetch(blob, sp)); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "shape") {
		t.Fatalf("Check with a wrong shape = %v, want an ErrCorrupt naming the shape", err)
	}
}

// TestSliceOfOneSampleReadsItsBlocks: Bytes plans only the blocks under a
// slice of one sample.
func TestSliceOfOneSampleReadsItsBlocks(t *testing.T) {
	big := make([]byte, 100_000)
	rand.New(rand.NewSource(3)).Read(big)
	blob, err := Encode([]Sample{{Shape: []int{1000, 100}, Data: big}})
	if err != nil {
		t.Fatal(err)
	}
	layout := NewLayout([][]int{{1000, 100}}, []int64{100_000})
	sp := layout.Bytes(0, 5000, 6000)
	parts := fetch(blob, sp)
	if err := sp.Check(parts); err != nil {
		t.Fatal(err)
	}
	if got := sp.SampleBytes(parts, 0, 5000, 6000); !bytes.Equal(got, big[5000:6000]) {
		t.Fatal("slice bytes differ from the sample's")
	}
	if read, _ := sp.Blocks(); read > 2 {
		t.Fatalf("a 1000-byte slice reads %d blocks", read)
	}
}

// TestVerifyBlocksNamesTheDamage: Verify checks a whole blob's seals and
// blocks one by one, and the failure names the block.
func TestVerifyBlocksNamesTheDamage(t *testing.T) {
	data := bytes.Repeat([]byte{7}, 5*BlockSize+10)
	blob, err := Encode([]Sample{{Shape: []int{len(data)}, Data: data}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Verify(blob); err != nil {
		t.Fatal(err)
	}
	start := len(blob) - int(tableSize(uint64(len(data)))) - len(data)
	cases := map[string]int{
		"block 3 ":          start + 3*BlockSize + 1,
		"directory seal":    20,
		"block table seal":  len(blob) - 10,
		"block table seal ": len(blob) - 2,
	}
	for want, at := range cases {
		bad := bytes.Clone(blob)
		bad[at] ^= 1
		_, err := Verify(bad)
		if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), strings.TrimSpace(want)) {
			t.Errorf("flip at %d: Verify = %v, want ErrCorrupt naming %q", at, err, want)
		}
	}
}

// TestDirectoryCountIsBoundedByItsBytes: a header claiming billions of
// samples over a 20-byte directory is corruption, found before anything is
// sized from the count.
func TestDirectoryCountIsBoundedByItsBytes(t *testing.T) {
	raw := bombHeader()
	if len(raw) != 36 {
		t.Fatalf("blob is %d bytes", len(raw))
	}
	for name, fn := range map[string]func([]byte) error{
		"DecodeDirectory": func(b []byte) error { _, err := DecodeDirectory(b); return err },
		"Decode":          func(b []byte) error { _, err := Decode(b); return err },
		"Verify":          func(b []byte) error { _, err := Verify(b); return err },
		"Open":            func(b []byte) error { _, err := Open(b); return err },
	} {
		if err := fn(raw); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s(sample-count bomb) = %v, want ErrCorrupt", name, err)
		}
	}
}

// bombHeader is a 36-byte chunk header and directory that claims 0xFFFFFFF0
// samples.
func bombHeader() []byte {
	raw := []byte(Magic)
	raw = binary.LittleEndian.AppendUint16(raw, FormatVersion)
	raw = binary.LittleEndian.AppendUint32(raw, 0xFFFFFFF0)
	raw = binary.LittleEndian.AppendUint32(raw, 20)
	raw = append(raw, byte(None), None.blockLog())
	return append(raw, make([]byte, 20)...)
}

// FuzzChunkDirectory feeds arbitrary bytes to every entry point that reads
// stored chunk bytes — the directory, whole-chunk decode and verify, Open and
// the first-touch inflation of each sample's blocks of an lz4 or deflate
// chunk, and the sparse reads' range checks: each either accepts them or
// returns an error wrapping ErrCorrupt, never panics, and never sizes an
// allocation from a block count, stored offset or decoded length the blob
// does not hold the bytes for.
func FuzzChunkDirectory(f *testing.F) {
	rng := rand.New(rand.NewSource(4))
	blob, samples, layout := randomChunk(f, rng, 6)
	sp := layout.Samples([]int{0, 3, 5})
	f.Add(blob)
	f.Add(blob[:len(blob)/2])
	f.Add(bombHeader())
	empty, _ := Encode(nil)
	f.Add(empty)
	f.Add([]byte{})
	for i := range samples {
		samples[i].Data = bytes.Repeat(samples[i].Data[:min(len(samples[i].Data), 7)], 300)
		samples[i].Shape = []int{len(samples[i].Data)}
	}
	for _, codec := range []Codec{LZ4, Deflate} {
		packed, err := codec.Encode(samples)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(packed)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		check := func(what string, err error) {
			if err != nil && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("%s: error %v does not wrap ErrCorrupt", what, err)
			}
		}
		_, err := DecodeDirectory(raw)
		check("DecodeDirectory", err)
		_, err = Decode(raw)
		check("Decode", err)
		_, err = Verify(raw)
		check("Verify", err)
		if c, err := Open(raw); err != nil {
			check("Open", err)
		} else {
			if c.Bytes() > maxRatio*int64(len(raw)) {
				t.Fatalf("Open sized %d decoded bytes from a %d-byte blob", c.Bytes(), len(raw))
			}
			for i := c.Len() - 1; i >= 0; i-- {
				_, err := c.Sample(i)
				check("Chunk.Sample", err)
			}
			_, err = c.Samples()
			check("Chunk.Samples", err)
		}
		// The input as the fetched ranges of a sparse read, cut to the
		// planned lengths while it lasts.
		parts := make([][]byte, len(sp.Ranges()))
		rest := raw
		c := sp.Checker()
		for i, r := range sp.Ranges() {
			n := min(int64(len(rest)), r.Length)
			parts[i], rest = rest[:n], rest[n:]
			_, err := c.Check(i, parts[i])
			check("Checker.Check", err)
		}
		check("Sparse.Check", sp.Check(parts))
	})
}
