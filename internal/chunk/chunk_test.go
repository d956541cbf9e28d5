package chunk

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
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

func TestVerifyFooter(t *testing.T) {
	blob, err := Encode([]Sample{{Shape: []int{3}, Data: []byte("abc")}})
	if err != nil {
		t.Fatal(err)
	}
	if checked, err := Verify(blob); !checked || err != nil {
		t.Fatalf("Verify(clean v2) = %v, %v; want checked, nil", checked, err)
	}

	// A single flipped payload bit must fail verification with ErrCorrupt,
	// even though the blob still parses structurally.
	flipped := append([]byte(nil), blob...)
	flipped[len(flipped)-footerSize-1] ^= 0x01
	checked, err := Verify(flipped)
	if !checked || err == nil {
		t.Fatalf("Verify(bit flip) = %v, %v; want checked, error", checked, err)
	}
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Verify error %v does not wrap ErrCorrupt", err)
	}

	// Garbled footer magic is corruption too.
	badMagic := append([]byte(nil), blob...)
	copy(badMagic[len(badMagic)-footerSize:], "XXXX")
	if _, err := Verify(badMagic); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Verify(bad footer magic) = %v, want ErrCorrupt", err)
	}
}

// TestV1BlobsAreRejected: a blob down-converted to the retired footerless
// version-1 layout is corruption to every entry point — in particular Verify
// must not wave it through unchecked because its version field reads 1.
func TestV1BlobsAreRejected(t *testing.T) {
	blob, err := Encode([]Sample{
		{Shape: []int{2}, Data: []byte("hi")},
		{Shape: []int{3}, Data: []byte("bye")},
	})
	if err != nil {
		t.Fatal(err)
	}
	old := append([]byte(nil), blob[:len(blob)-footerSize]...)
	old[4], old[5] = 1, 0
	if _, err := Decode(old); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Decode(v1) = %v, want ErrCorrupt", err)
	}
	if _, err := DecodeDirectory(old); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("DecodeDirectory(v1) = %v, want ErrCorrupt", err)
	}
	if checked, err := Verify(old); checked || !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Verify(v1) = %v, %v; want unchecked, ErrCorrupt", checked, err)
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
	b := NewBuilder(Bounds{Min: 10, Target: 20, Max: 30})

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
	b := NewBuilder(Bounds{Min: 10, Target: 20, Max: 30})
	if err := b.Append(Sample{Data: make([]byte, 25)}); err != nil {
		t.Fatal(err)
	}
	if err := b.Append(Sample{Data: make([]byte, 10)}); err == nil {
		t.Fatal("append exceeding max on non-empty builder should error")
	}
}

func TestBuilderTiling(t *testing.T) {
	b := NewBuilder(Bounds{Min: 10, Target: 20, Max: 30})
	if !b.NeedsTiling(31) {
		t.Fatal("31 > max must tile")
	}
	if b.NeedsTiling(30) {
		t.Fatal("30 == max must not tile")
	}
}

func TestInvalidBoundsFallBack(t *testing.T) {
	b := NewBuilder(Bounds{Min: -1, Target: 0, Max: 0})
	if b.Bounds() != DefaultBounds() {
		t.Fatalf("invalid bounds should fall back to defaults, got %+v", b.Bounds())
	}
	if DefaultBounds().Target != 8<<20 {
		t.Fatalf("default target = %d, want 8MB per paper", DefaultBounds().Target)
	}
}
