package chunk

import (
	"bytes"
	"errors"
	"hash/crc32"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	samples := []Sample{
		{Shape: []int{2, 3}, Data: []byte("abcdef")},
		{Shape: []int{0}, Data: nil},
		{Shape: nil, Data: []byte{9}}, // scalar
		{Shape: []int{4}, Data: []byte("wxyz")},
	}
	blob, err := Encode(samples)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(samples) {
		t.Fatalf("decoded %d samples, want %d", len(got), len(samples))
	}
	for i := range samples {
		if !bytes.Equal(got[i].Data, samples[i].Data) {
			t.Errorf("sample %d data mismatch", i)
		}
		if len(got[i].Shape) != len(samples[i].Shape) {
			t.Errorf("sample %d shape rank mismatch: %v vs %v", i, got[i].Shape, samples[i].Shape)
			continue
		}
		for j := range samples[i].Shape {
			if got[i].Shape[j] != samples[i].Shape[j] {
				t.Errorf("sample %d shape mismatch: %v vs %v", i, got[i].Shape, samples[i].Shape)
			}
		}
	}
}

func TestEmptyChunk(t *testing.T) {
	blob, err := Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(blob)
	if err != nil || len(got) != 0 {
		t.Fatalf("Decode(empty) = %v, %v", got, err)
	}
}

func TestDecodeRejectsCorrupt(t *testing.T) {
	blob, _ := Encode([]Sample{{Shape: []int{3}, Data: []byte("abc")}})
	cases := map[string][]byte{
		"empty":         {},
		"short":         blob[:5],
		"bad magic":     append([]byte("XXXX"), blob[4:]...),
		"bad version":   append([]byte(Magic), append([]byte{99, 0}, blob[6:]...)...),
		"truncated dir": blob[:headerSize+2],
	}
	for name, raw := range cases {
		err := mustDecodeErr(t, raw)
		if err == nil {
			t.Errorf("%s: Decode should error", name)
			continue
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: error %v does not wrap ErrCorrupt", name, err)
		}
	}
	// Directory claiming more bytes than present.
	bad := append([]byte(nil), blob...)
	bad[10] = 0xFF
	if err := mustDecodeErr(t, bad); !errors.Is(err, ErrCorrupt) {
		t.Errorf("oversized dirBytes: error %v does not wrap ErrCorrupt", err)
	}
}

func mustDecodeErr(t *testing.T, raw []byte) error {
	t.Helper()
	_, err := Decode(raw)
	return err
}

// TestVerifyCatchesAFlippedBit: one flipped payload bit fails Verify with
// ErrCorrupt naming the block, though the blob still parses structurally.
func TestVerifyCatchesAFlippedBit(t *testing.T) {
	for _, codec := range []Codec{None, LZ4} {
		blob, err := codec.Encode([]Sample{{Shape: []int{3}, Data: []byte("abc")}})
		if err != nil {
			t.Fatal(err)
		}
		if checked, err := Verify(blob); !checked || err != nil {
			t.Fatalf("codec %d: Verify(clean) = %v, %v; want checked, nil", codec, checked, err)
		}
		flipped := append([]byte(nil), blob...)
		flipped[len(flipped)-12-codec.entrySize()-1] ^= 0x01 // the last data byte
		checked, err := Verify(flipped)
		if !checked || !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "block 0 ") {
			t.Fatalf("codec %d: Verify(bit flip) = %v, %v; want checked, ErrCorrupt naming block 0", codec, checked, err)
		}
	}
}

// TestVerifyFooter: the block table ends the blob with the block count and
// the table seal, and a reader finds the table from there, so any flipped bit
// in those last bytes, or a blob cut short, fails Verify with ErrCorrupt
// though the header still parses.
func TestVerifyFooter(t *testing.T) {
	for _, codec := range []Codec{None, LZ4} {
		blob, err := codec.Encode([]Sample{{Shape: []int{3}, Data: []byte("abc")}})
		if err != nil {
			t.Fatal(err)
		}
		for at := len(blob) - 8; at < len(blob); at++ {
			for bit := 0; bit < 8; bit++ {
				bad := bytes.Clone(blob)
				bad[at] ^= 1 << bit
				if checked, err := Verify(bad); !checked || !errors.Is(err, ErrCorrupt) {
					t.Fatalf("codec %d, flip %d.%d: Verify = %v, %v; want checked, ErrCorrupt", codec, at, bit, checked, err)
				}
			}
		}
		if checked, err := Verify(blob[:len(blob)-1]); !checked || !errors.Is(err, ErrCorrupt) {
			t.Fatalf("codec %d, truncated: Verify = %v, %v; want checked, ErrCorrupt", codec, checked, err)
		}
	}
}

// TestV1BlobsAreRejected: a blob whose header names the retired version 1
// is corruption to every entry point — in particular Verify must not wave
// it through unchecked.
func TestV1BlobsAreRejected(t *testing.T) { checkVersionRejected(t, 1) }

// TestOtherVersionsAreRejected: so is one naming the retired versions 2 or
// 3, or one not yet written.
func TestOtherVersionsAreRejected(t *testing.T) {
	for _, v := range []byte{2, 3, FormatVersion + 1} {
		checkVersionRejected(t, v)
	}
}

func checkVersionRejected(t *testing.T, version byte) {
	t.Helper()
	blob, err := Encode([]Sample{
		{Shape: []int{2}, Data: []byte("hi")},
		{Shape: []int{3}, Data: []byte("bye")},
	})
	if err != nil {
		t.Fatal(err)
	}
	old := append([]byte(nil), blob...)
	old[4], old[5] = version, 0
	if _, err := Decode(old); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Decode(v%d) = %v, want ErrCorrupt", version, err)
	}
	if _, err := DecodeDirectory(old); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("DecodeDirectory(v%d) = %v, want ErrCorrupt", version, err)
	}
	if checked, err := Verify(old); checked || !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Verify(v%d) = %v, %v; want unchecked, ErrCorrupt", version, checked, err)
	}
}

func TestSampleRange(t *testing.T) {
	samples := []Sample{
		{Shape: []int{1}, Data: []byte("a")},
		{Shape: []int{2}, Data: []byte("bc")},
		{Shape: []int{3}, Data: []byte("def")},
	}
	blob, _ := Encode(samples)
	for i, s := range samples {
		off, n, shape, err := SampleRange(blob, i)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(blob[off:off+n], s.Data) {
			t.Errorf("sample %d: range [%d,%d) = %q, want %q", i, off, off+n, blob[off:off+n], s.Data)
		}
		if shape[0] != s.Shape[0] {
			t.Errorf("sample %d shape = %v", i, shape)
		}
	}
	if _, _, _, err := SampleRange(blob, 3); err == nil {
		t.Error("out of range sample should error")
	}
	if _, _, _, err := SampleRange(blob, -1); err == nil {
		t.Error("negative sample should error")
	}
}

func TestDirectoryFromPrefix(t *testing.T) {
	// A reader should be able to parse the directory from a prefix of the
	// chunk, without the payload, to plan range requests.
	samples := []Sample{
		{Shape: []int{100}, Data: bytes.Repeat([]byte{1}, 100)},
		{Shape: []int{200}, Data: bytes.Repeat([]byte{2}, 200)},
	}
	blob, _ := Encode(samples)
	prefix := blob[:int(HeaderRange(2, 1))]
	d, err := DecodeDirectory(prefix)
	if err != nil {
		t.Fatal(err)
	}
	if d.NumSamples() != 2 {
		t.Fatalf("NumSamples = %d", d.NumSamples())
	}
	off, n, _, err := d.SampleRange(prefix, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob[off:off+n], samples[1].Data) {
		t.Fatal("range from prefix directory mismatched")
	}
}

// Property: arbitrary sample sets round-trip through Encode/Decode.
func TestChunkRoundTripProperty(t *testing.T) {
	f := func(seed int64, count uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(count) % 20
		samples := make([]Sample, n)
		for i := range samples {
			rank := rng.Intn(4)
			shape := make([]int, rank)
			size := 1
			for j := range shape {
				shape[j] = rng.Intn(5)
				size *= shape[j]
			}
			data := make([]byte, rng.Intn(100))
			rng.Read(data)
			samples[i] = Sample{Shape: shape, Data: data}
		}
		blob, err := Encode(samples)
		if err != nil {
			return false
		}
		got, err := Decode(blob)
		if err != nil || len(got) != n {
			return false
		}
		for i := range samples {
			if !bytes.Equal(got[i].Data, samples[i].Data) {
				return false
			}
			if !reflect.DeepEqual(normShape(got[i].Shape), normShape(samples[i].Shape)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func normShape(s []int) []int {
	if len(s) == 0 {
		return []int{}
	}
	return s
}

func TestBuilderBoundsPolicy(t *testing.T) {
	b := NewBuilder(Bounds{Min: 10, Target: 20, Max: 30}, None)

	// Empty builder never flushes first.
	if b.ShouldFlushBefore(100) {
		t.Fatal("empty builder should not request flush")
	}
	if err := b.Append(Sample{Shape: []int{8}, Data: make([]byte, 8)}); err != nil {
		t.Fatal(err)
	}
	// 8 bytes buffered, adding 10 = 18 <= max: no flush.
	if b.ShouldFlushBefore(10) {
		t.Fatal("should not flush below target")
	}
	if err := b.Append(Sample{Shape: []int{10}, Data: make([]byte, 10)}); err != nil {
		t.Fatal(err)
	}
	// 18 buffered, adding 20 would exceed max 30: flush first.
	if !b.ShouldFlushBefore(20) {
		t.Fatal("should flush when append would exceed max")
	}
	// 18 < target 20: small sample may still go in.
	if b.ShouldFlushBefore(2) {
		t.Fatal("small sample should still fit")
	}
	if err := b.Append(Sample{Shape: []int{4}, Data: make([]byte, 4)}); err != nil {
		t.Fatal(err)
	}
	// 22 >= target 20: any further append flushes first.
	if !b.ShouldFlushBefore(1) {
		t.Fatal("should flush at target size")
	}

	blob, n, err := b.Flush()
	if err != nil || n != 3 {
		t.Fatalf("Flush = %d samples, %v", n, err)
	}
	if got, _ := Decode(blob); len(got) != 3 {
		t.Fatalf("flushed chunk has %d samples", len(got))
	}
	if b.Len() != 0 || b.PayloadBytes() != 0 {
		t.Fatal("builder not reset after flush")
	}
	if blob2, n2, err := b.Flush(); blob2 != nil || n2 != 0 || err != nil {
		t.Fatal("flushing empty builder should be a no-op")
	}
}

func TestBuilderRejectsOverflow(t *testing.T) {
	b := NewBuilder(Bounds{Min: 10, Target: 20, Max: 30}, None)
	if err := b.Append(Sample{Data: make([]byte, 25)}); err != nil {
		t.Fatal(err)
	}
	if err := b.Append(Sample{Data: make([]byte, 10)}); err == nil {
		t.Fatal("append exceeding max on non-empty builder should error")
	}
}

// TestBuilderSetKeepsPayloadBytes: Set replaces a buffered sample in place,
// past Max too, and the payload size and the flushed chunk follow it.
func TestBuilderSetKeepsPayloadBytes(t *testing.T) {
	b := NewBuilder(Bounds{Min: 10, Target: 20, Max: 30}, None)
	for _, n := range []int{8, 10} {
		if err := b.Append(Sample{Shape: []int{n}, Data: make([]byte, n)}); err != nil {
			t.Fatal(err)
		}
	}
	b.Set(0, Sample{Shape: []int{3}, Data: []byte{1, 2, 3}})
	if b.PayloadBytes() != 13 || b.Samples()[0].Data[2] != 3 {
		t.Fatalf("after Set: %d payload bytes, sample 0 %v", b.PayloadBytes(), b.Samples()[0].Data)
	}
	b.Set(1, Sample{Shape: []int{40}, Data: make([]byte, 40)})
	if b.PayloadBytes() != 43 || b.Len() != 2 {
		t.Fatalf("after an oversize Set: %d payload bytes in %d samples", b.PayloadBytes(), b.Len())
	}
	blob, n, err := b.Flush()
	if err != nil || n != 2 {
		t.Fatalf("Flush = %d samples, %v", n, err)
	}
	got, err := Decode(blob)
	if err != nil || len(got) != 2 || !bytes.Equal(got[0].Data, []byte{1, 2, 3}) || len(got[1].Data) != 40 {
		t.Fatalf("flushed chunk %v, %v", got, err)
	}
}

func TestBuilderTiling(t *testing.T) {
	b := NewBuilder(Bounds{Min: 10, Target: 20, Max: 30}, None)
	if !b.NeedsTiling(31) {
		t.Fatal("31 > max must tile")
	}
	if b.NeedsTiling(30) {
		t.Fatal("30 == max must not tile")
	}
}

func TestInvalidBoundsFallBack(t *testing.T) {
	b := NewBuilder(Bounds{Min: -1, Target: 0, Max: 0}, None)
	if b.Bounds() != DefaultBounds() {
		t.Fatalf("invalid bounds should fall back to defaults, got %+v", b.Bounds())
	}
	if DefaultBounds().Target != 8<<20 {
		t.Fatalf("default target = %d, want 8MB per paper", DefaultBounds().Target)
	}
}

// BenchmarkBlockCRC is what checking the data of a 256 KiB uncompressed
// chunk costs: Verify (its two seals, then each 1 KiB block's CRC32C in a
// call of its own), the block checks alone, and one CRC32C over the same
// bytes, as a whole-blob check would take. SetBytes is the data section.
func BenchmarkBlockCRC(b *testing.B) {
	data := make([]byte, 256<<10)
	rand.New(rand.NewSource(1)).Read(data)
	blob, err := Encode([]Sample{{Shape: []int{len(data)}, Data: data}})
	if err != nil {
		b.Fatal(err)
	}
	p, err := parse(blob)
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		run  func() error
	}{
		{"verify", func() error { _, err := Verify(blob); return err }},
		{"blocks", func() error {
			for blk := 0; blk < p.blocks(); blk++ {
				if err := p.check(blk); err != nil {
					return err
				}
			}
			return nil
		}},
		{"one-crc", func() error {
			if crc32.Checksum(p.stored, castagnoli) == 0 {
				return errors.New("zero checksum")
			}
			return nil
		}},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				if err := c.run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
